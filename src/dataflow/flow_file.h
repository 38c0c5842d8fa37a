// FlowFile: the unit of data moving through the dataflow engine.
//
// One typed envelope per camera frame. The frame enters the flow as wire
// bytes and every stage edits the envelope it received and passes it on:
// the payload is rewritten (wire bytes -> still -> activation or label) and
// `kind` says which it holds. The engine itself only moves envelopes and
// reads `trace`; stages interpret the rest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "nn/tensor.h"
#include "obs/trace.h"

namespace sieve::runtime::internal {
struct SessionState;
}

namespace sieve::dataflow {

struct FlowFile {
  /// What the envelope carries at this point of the flow.
  enum class Kind : std::uint8_t {
    kIFrame,      ///< intra-coded wire bytes (header + payload)
    kPFrame,      ///< inter-coded wire bytes; the seeker stores it edge-side
    kStill,       ///< SIM1 still at the classifier's input size
    kActivation,  ///< cut-point activation: serialized, or parsed in `tensor`
    kLabel,       ///< finished labels in `label_bits`; empty payload
  };

  std::vector<std::uint8_t> payload;
  /// Per-frame trace identity (session track + frame index), stamped when
  /// the frame enters the flow, so every stage's span joins one frame tree.
  obs::TraceContext trace;
  /// The owning camera session. Stamped by the session's source as it pops
  /// the frame, so a session's own ingress queue never holds a reference
  /// to it.
  std::shared_ptr<runtime::internal::SessionState> session;
  std::uint64_t frame = 0;      ///< frame index within the session
  std::uint64_t t_push_us = 0;  ///< push time on the session's stopwatch
  Kind kind = Kind::kPFrame;
  /// Layers [0, split) ran at the edge; latched by the edge-NN stage so a
  /// replan never changes an in-flight activation's plan.
  std::size_t split = 0;
  /// Bytes this frame put on the WAN as goodput (0 until it crosses).
  std::uint64_t wan_bytes = 0;
  std::uint8_t label_bits = 0;  ///< synth::LabelSet bits of a kLabel
  /// A parsed activation the cloud sink hands to the fleet batcher. The
  /// payload is released once this is set: the envelope never holds both.
  std::optional<nn::Tensor> tensor;
};

}  // namespace sieve::dataflow
