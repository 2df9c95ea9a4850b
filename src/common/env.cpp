#include "common/env.h"

#include <cstdlib>

namespace xfa {
namespace {

bool flag_set(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] == '1';
}

EnvSnapshot read_environment() {
  EnvSnapshot snapshot;
  snapshot.fast = flag_set("XFA_FAST");
  snapshot.no_cache = flag_set("XFA_NO_CACHE");
  if (const char* dir = std::getenv("XFA_CACHE_DIR");
      dir != nullptr && dir[0] != '\0') {
    snapshot.cache_dir = dir;
  }
  if (const char* retries = std::getenv("XFA_SCENARIO_RETRIES");
      retries != nullptr && retries[0] != '\0') {
    const int parsed = std::atoi(retries);
    if (parsed >= 0) snapshot.scenario_retries = parsed;
  }
  if (const char* threads = std::getenv("XFA_THREADS");
      threads != nullptr && threads[0] != '\0') {
    const int parsed = std::atoi(threads);
    if (parsed > 0) snapshot.threads = static_cast<std::size_t>(parsed);
  }
  if (const char* deadline = std::getenv("XFA_TRACE_DEADLINE_MS");
      deadline != nullptr && deadline[0] != '\0') {
    const int parsed = std::atoi(deadline);
    if (parsed >= 0) snapshot.trace_deadline_ms = parsed;
  }
  if (const char* wait = std::getenv("XFA_CLAIM_WAIT_MS");
      wait != nullptr && wait[0] != '\0') {
    const int parsed = std::atoi(wait);
    if (parsed >= 0) snapshot.claim_wait_ms = parsed;
  }
  return snapshot;
}

EnvSnapshot& mutable_snapshot() {
  static EnvSnapshot snapshot = read_environment();
  return snapshot;
}

}  // namespace

const EnvSnapshot& env() { return mutable_snapshot(); }

void refresh_env_for_testing() { mutable_snapshot() = read_environment(); }

}  // namespace xfa
