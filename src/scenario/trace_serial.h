// Serialization of a ScenarioResult payload (the body inside the XFATRC3
// frame) written and read by the trace cache (scenario/cache.h).
//
// Layout: key string, times, row count, column count, row data (doubles),
// then the ScenarioSummary fields. Parsing is bounds-checked end to end
// (common/serial.h): hostile counts never allocate or read out of bounds.
#pragma once

#include <string>

#include "common/status.h"
#include "scenario/runner.h"

namespace xfa {

/// Appends the serialized payload for (`key`, `result`) to `out`.
/// kInvalidArgument when the trace rows are ragged (nothing appended).
Status append_scenario_payload(std::string& out, const std::string& key,
                               const ScenarioResult& result);

/// Parses a payload produced by append_scenario_payload. Returns false on
/// any structural failure; `key_mismatch` is set when the payload is valid
/// but embeds a different key (an fnv1a hash collision in the cache — the
/// file is healthy and belongs to someone else).
bool parse_scenario_payload(const std::string& payload, const std::string& key,
                            bool& key_mismatch, ScenarioResult& result);

}  // namespace xfa
