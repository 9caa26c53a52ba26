// The imperative WordCount job (Hadoop stand-in) with report-mode
// provenance instrumentation, plus the matching declarative job builder.
//
// Both variants produce the *same* tuples on the same logical timeline, so a
// reference tree from one job aligns with an event from another:
//   t=0 jobConf, t=1 mapperCode, t=2 confDep*, t=3 fileIn,
//   line i (globally) arrives at t = 100 + 10*i,
//   mapEmit at line+1+slot, wordAt at the reducer 10 later.
//
// The imperative job executes real tokenization/hash-partitioning code and
// *reports* its dependencies (paper: "less than 200 lines of
// instrumentation... at the level of individual key-value pairs, input data
// files, Java bytecode signatures, and configuration entries"); the
// declarative variant feeds the same base tuples through the NDlog engine
// and lets rules m0..m7/sh derive the rest.
#pragma once

#include <map>

#include "diffprov/diffprov.h"
#include "mapred/corpus.h"
#include "mapred/model.h"
#include "provenance/recorder.h"
#include "replay/event_log.h"

namespace dp::mapred {

struct JobConfig {
  int num_reducers = 4;
  std::string mapper_version = "v1";
  ModelConfig model;
};

struct JobOutput {
  /// reducer node -> word -> count (the job's output files).
  std::map<std::string, std::map<std::string, int>> counts;
  std::size_t emissions = 0;
  std::size_t lines = 0;
};

/// The derived facts of an instrumented job run with their creation times,
/// which the job's StateView reads. Kept by ref, one bucket per (table,
/// node); a bucket is sorted into structural tuple order on its first scan.
class JobFacts {
 public:
  /// Records the interned `fact`, created at `at`. A fact recorded twice
  /// keeps its first time.
  void add(TupleRef fact, LogicalTime at);

  /// Calls `fn` on each fact of `table` on `node` created at or before
  /// `at`, in structural tuple order.
  void scan(const std::string& table, const NodeName& node, LogicalTime at,
            const std::function<void(const Tuple&)>& fn) const;

  /// Calls `fn(ref, created)` on every fact, bucket by bucket.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [key, bucket] : buckets_) {
      for (const Fact& fact : bucket.facts) fn(fact.ref, fact.at);
    }
  }

 private:
  struct Fact {
    TupleRef ref = kNoTupleRef;
    LogicalTime at = 0;
  };
  struct Bucket {
    std::vector<Fact> facts;
    bool sorted = false;
  };
  // Keyed by (table name, location value), both as store refs.
  mutable std::map<std::pair<NameRef, ValueRef>, Bucket> buckets_;
};

struct JobRunOptions {
  /// Report-mode instrumentation target (may be null: uninstrumented run).
  ProvenanceRecorder* recorder = nullptr;
  /// Persistent log; receives *metadata only* (config, code and file
  /// checksums -- never file contents; paper section 6.5).
  EventLog* metadata_log = nullptr;
  /// Recompute file checksums on every read instead of using the store's
  /// cached digests -- the dominating logging cost of section 6.4, and the
  /// optimization that reduces it to ~0.2%.
  bool recompute_checksums = false;
  /// Filled with derived-fact creation times for the StateView (optional).
  JobFacts* facts = nullptr;
};

/// Runs the imperative job. Deterministic.
JobOutput run_wordcount(const CorpusStore& store, const JobConfig& config,
                        const JobRunOptions& options = {});

// --- shared tuple builders / timeline (used by scenarios and tests) ---
NodeName mapper_node(std::size_t file_index);
LogicalTime line_time(std::size_t global_line_index);
Tuple line_tuple(const NodeName& mapper, const CorpusFile& file,
                 std::size_t line_no);
Tuple word_at_tuple(const std::string& reducer, const std::string& word,
                    const std::string& file, std::size_t line_no, int slot);

/// Hadoop's default partitioner, bit-identical to the f_partition builtin.
int partition_of(const std::string& word, int num_reducers);

/// Builds the event log that drives the *declarative* variant through the
/// NDlog engine (same base tuples, same timeline).
EventLog declarative_job_log(const CorpusStore& store,
                             const JobConfig& config);

/// Replay provider for the imperative variant: re-runs the instrumented job
/// with the Δ applied to its configuration (reducer count, mapper version,
/// config entries).
class WordCountReplayProvider final : public ReplayProvider {
 public:
  WordCountReplayProvider(const CorpusStore& store, JobConfig config)
      : store_(&store), base_config_(std::move(config)) {}

  BadRun replay_bad(const Delta& delta) override;

  /// The configuration produced by the last delta (for tests).
  [[nodiscard]] const JobConfig& last_config() const { return last_config_; }

 private:
  const CorpusStore* store_;
  JobConfig base_config_;
  JobConfig last_config_ = base_config_;
};

}  // namespace dp::mapred
