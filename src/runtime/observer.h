// Observer interface through which the runtime reports execution events.
//
// Both the provenance recorder (paper section 5, "provenance recorder") and
// the logging engine (section 5, "logging engine") attach here. Observers
// are notified synchronously, in registration order, in deterministic event
// order.
//
// Callbacks carry interned refs (store/store.h), not tuple copies: the
// engine interns each new tuple once, when it processes it, into the
// process-wide store. Its table row keeps that ref, so a derivation's body,
// a displaced row and a deleted row are notified with the refs the engine
// already holds, and every observer downstream -- recorder, event log --
// shares the single record. An observer that needs value semantics resolves
// the ref (`resolve_tuple`), which returns the store's canonical copy.
#pragma once

#include <vector>

#include "store/store.h"
#include "util/time.h"

namespace dp {

class RuntimeObserver {
 public:
  virtual ~RuntimeObserver() = default;

  /// A base tuple was inserted on its location node at `t`. `is_event` is
  /// true for non-materialized (event) tables whose tuples exist only for an
  /// instant.
  virtual void on_base_insert(TupleRef tuple, LogicalTime t, bool is_event) {
    (void)tuple; (void)t; (void)is_event;
  }

  /// A base tuple was deleted (externally, or displaced by key upsert).
  virtual void on_base_delete(TupleRef tuple, LogicalTime t) {
    (void)tuple; (void)t;
  }

  /// `head` was derived via `rule` from `body` (in rule body order); body
  /// tuple `trigger_index` is the one whose appearance triggered the firing.
  virtual void on_derive(TupleRef head, NameRef rule,
                         const std::vector<TupleRef>& body,
                         std::size_t trigger_index, LogicalTime t,
                         bool is_event) {
    (void)head; (void)rule; (void)body; (void)trigger_index; (void)t;
    (void)is_event;
  }

  /// `head` lost its last remaining derivation (support reached zero)
  /// because `cause` was deleted; `rule` is the rule of the removed
  /// derivation.
  virtual void on_underive(TupleRef head, NameRef rule, TupleRef cause,
                           LogicalTime t) {
    (void)head; (void)rule; (void)cause; (void)t;
  }
};

}  // namespace dp
