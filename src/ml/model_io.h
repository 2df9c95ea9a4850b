// Name-tagged classifier serialization.
//
// save_classifier() writes the classifier's registry name ("C4.5", "RIPPER",
// "NBC") followed by its state as a nested, length-prefixed blob;
// load_classifier() instantiates a fresh default-configured instance by name
// and restores the state through Classifier::load_state(). The blob nesting
// means a reader can bound every classifier's bytes without understanding
// its internals, and per-classifier validation (column indices against
// `max_columns`, size invariants, recursion depth) happens inside
// load_state. Restored classifiers score bit-identically to the originals.
//
// These are payload-level helpers; framing, CRC and quarantine live in the
// artifact layer (common/atomic_file.h, scenario/model_store.h).
#pragma once

#include <memory>
#include <string>

#include "common/status.h"
#include "ml/dataset.h"

namespace xfa {

class SerialReader;
class SerialWriter;

/// Fresh default-configured instance for a registry name; nullptr when the
/// name is unknown (a corrupt or future-format artifact).
std::unique_ptr<Classifier> make_classifier_by_name(const std::string& name);

/// Appends `classifier.name()` + its nested state blob. Passes on the
/// classifier's save_state() refusal — kInvalidArgument when it is
/// unfitted — with nothing written.
Status save_classifier(const Classifier& classifier, SerialWriter& out);

/// Reads one classifier written by save_classifier. kCorruptArtifact on any
/// structural or semantic violation; `max_columns` bounds every stored
/// column index (the row width predict will be handed).
Result<std::unique_ptr<Classifier>> load_classifier(SerialReader& in,
                                                    std::size_t max_columns);

}  // namespace xfa
