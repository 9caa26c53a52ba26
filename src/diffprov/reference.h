// Automatic reference-event selection (the paper's section 4.9 "Reference
// events" extension: "we are also exploring to automate this process using
// inspirations from Automatic Test Packet Generation and the 'guided
// probes' idea in Everflow").
//
// Given the event of interest, the finder scans the bad execution's
// provenance graph for other events of the same type, scores them by field
// similarity (shared IP prefix bits, numeric closeness, exact matches), and
// tries diagnoses best-first until one succeeds -- DiffProv's own failure
// modes (seed mismatch, immutable change) reject unsuitable candidates, so
// the search self-corrects exactly the way the paper's error messages guide
// a human operator.
#pragma once

#include "diffprov/diffprov.h"

namespace dp {

struct ReferenceCandidate {
  Tuple event;
  double score = 0;  // in [0, 1]; 1 = identical fields (excluded)
};

/// Scores candidate reference events for `bad_event`: live or historical
/// tuples of the same table, ranked by similarity, the most similar first.
std::vector<ReferenceCandidate> suggest_references(
    const ProvenanceGraph& graph, const Tuple& bad_event,
    std::size_t limit = 8);

struct AutoDiagnosis {
  DiffProvResult result;
  std::optional<Tuple> reference;      // the candidate that succeeded
  std::size_t candidates_tried = 0;
};

/// Runs `suggest_references` over the bad execution's own graph and tries
/// candidates best-first. Every candidate's diagnosis starts from `bad_run`
/// instead of replaying the log again. Returns the first successful
/// diagnosis, or the last failure if none succeeds.
AutoDiagnosis diagnose_with_auto_reference(DiffProv& diffprov,
                                           const BadRun& bad_run,
                                           const Tuple& bad_event,
                                           std::size_t limit = 8);

/// Field-level similarity in [0, 1] between two same-arity tuples; exposed
/// for tests and tooling.
double tuple_similarity(const Tuple& a, const Tuple& b);

}  // namespace dp
