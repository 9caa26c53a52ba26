// Provenance recorder (paper section 5).
//
// Three acquisition modes are supported, matching the paper:
//  * "infer"  -- attach the recorder as a RuntimeObserver on the NDlog
//                runtime; provenance is inferred from rule firings.
//  * "report" -- an instrumented imperative system (src/mapred's WordCount)
//                calls report_* directly.
//  * "external specification" -- a black-box interpreter (src/sdn's
//                trace-based OpenFlow spec, section 6.7) reconstructs
//                derivations from packet traces and reports them here.
//
// A node filter enables the *selective reconstruction* optimization from
// section 5: during replay, only provenance on relevant nodes is expanded;
// pruned dependencies appear as unexpanded boundary facts.
#pragma once

#include <functional>
#include <string>

#include "provenance/graph.h"
#include "runtime/observer.h"

namespace dp {

class ProvenanceRecorder final : public RuntimeObserver {
 public:
  ProvenanceRecorder() = default;

  [[nodiscard]] const ProvenanceGraph& graph() const { return graph_; }
  [[nodiscard]] ProvenanceGraph& graph() { return graph_; }

  /// Selective reconstruction: record only tuples for which `filter` returns
  /// true (default: everything). Dependencies of recorded derivations that
  /// were themselves filtered out appear as boundary base facts.
  void set_filter(std::function<bool(const Tuple&)> filter) {
    filter_ = std::move(filter);
  }

  /// Pauses/resumes recording entirely (used to measure logging overheads).
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // --- RuntimeObserver (the "infer" mode) ---
  void on_base_insert(TupleRef tuple, LogicalTime t, bool is_event) override;
  void on_base_delete(TupleRef tuple, LogicalTime t) override;
  void on_derive(TupleRef head, NameRef rule,
                 const std::vector<TupleRef>& body, std::size_t trigger_index,
                 LogicalTime t, bool is_event) override;
  void on_underive(TupleRef head, NameRef rule, TupleRef cause,
                   LogicalTime t) override;

  // --- direct reporting (the "report" / "external specification" modes) ---
  // Tuple-valued: instrumented imperative systems hold real tuples, so these
  // intern on entry and forward to the ref paths. A reporter whose tuples
  // feed many derivations (a job's configuration, an input line) interns
  // each once instead and reports by ref: the ref-valued report_derivation
  // below, and on_base_insert / on_base_delete for base facts.
  void report_base(const Tuple& tuple, LogicalTime t, bool is_event = false) {
    on_base_insert(intern_tuple(tuple), t, is_event);
  }
  void report_delete(const Tuple& tuple, LogicalTime t) {
    on_base_delete(intern_tuple(tuple), t);
  }
  void report_derivation(const Tuple& head, const std::string& rule,
                         const std::vector<Tuple>& body,
                         std::size_t trigger_index, LogicalTime t,
                         bool is_event = false);
  void report_derivation(TupleRef head, NameRef rule,
                         const std::vector<TupleRef>& body,
                         std::size_t trigger_index, LogicalTime t,
                         bool is_event = false) {
    on_derive(head, rule, body, trigger_index, t, is_event);
  }

 private:
  /// The selective-reconstruction filter speaks Tuples (it comes from
  /// ReplayOptions); resolving a ref returns the store's canonical copy, so
  /// no materialization happens after the first query of a given tuple.
  [[nodiscard]] bool wanted(TupleRef tuple) const {
    return enabled_ && (!filter_ || filter_(resolve_tuple(tuple)));
  }

  ProvenanceGraph graph_;
  std::function<bool(const Tuple&)> filter_;
  bool enabled_ = true;
};

}  // namespace dp
