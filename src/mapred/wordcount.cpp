#include "mapred/wordcount.h"

#include <algorithm>

#include "util/hash.h"

namespace dp::mapred {

namespace {

Tuple make(const std::string& table, std::vector<Value> values) {
  return Tuple(table, std::move(values));
}

std::string conf_key(int i) {
  return "conf" + std::string(i < 10 ? "0" : "") + std::to_string(i);
}

std::string conf_value(int i) { return "val" + std::to_string(i); }

/// The same digest rule js computes: f_hash over the concatenated values.
std::int64_t setup_digest(int conf_deps) {
  std::string blob;
  for (int i = 0; i < conf_deps; ++i) blob += conf_value(i);
  return static_cast<std::int64_t>(fnv1a(blob) & 0x7FFFFFFF);
}

/// Whitespace tokenizer matching the f_nth_word builtin.
std::vector<std::string> tokenize(const std::string& text) {
  std::vector<std::string> words;
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && text[pos] == ' ') ++pos;
    if (pos >= text.size()) break;
    const std::size_t end = text.find(' ', pos);
    const std::size_t stop = end == std::string::npos ? text.size() : end;
    words.push_back(text.substr(pos, stop - pos));
    pos = stop;
  }
  return words;
}

}  // namespace

NodeName mapper_node(std::size_t file_index) {
  return "m" + std::to_string(file_index);
}

LogicalTime line_time(std::size_t global_line_index) {
  return 100 + 10 * static_cast<LogicalTime>(global_line_index);
}

Tuple line_tuple(const NodeName& mapper, const CorpusFile& file,
                 std::size_t line_no) {
  return make("lineIn", {mapper, file.name,
                         static_cast<std::int64_t>(line_no),
                         file.lines[line_no]});
}

Tuple word_at_tuple(const std::string& reducer, const std::string& word,
                    const std::string& file, std::size_t line_no, int slot) {
  return make("wordAt", {reducer, word, file,
                         static_cast<std::int64_t>(line_no), slot});
}

int partition_of(const std::string& word, int num_reducers) {
  return static_cast<int>((fnv1a(word) & 0x7FFFFFFF) %
                          static_cast<std::uint64_t>(num_reducers));
}

void JobFacts::add(TupleRef fact, LogicalTime at) {
  const TupleStore& store = global_store();
  Bucket& bucket = buckets_[{store.table_id(fact), store.value_ref(fact, 0)}];
  bucket.facts.push_back({fact, at});
  bucket.sorted = false;
}

void JobFacts::scan(const std::string& table, const NodeName& node,
                    LogicalTime at,
                    const std::function<void(const Tuple&)>& fn) const {
  const TupleStore& store = global_store();
  for (auto& [key, bucket] : buckets_) {
    if (store.names().name(key.first) != table) continue;
    const Value& location = store.values().value(key.second);
    if (!location.is_string() || location.as_string() != node) continue;
    if (!bucket.sorted) {
      // Stable, so the first of a fact recorded twice is the one kept.
      std::stable_sort(bucket.facts.begin(), bucket.facts.end(),
                       [&store](const Fact& a, const Fact& b) {
                         return store.less(a.ref, b.ref);
                       });
      bucket.facts.erase(
          std::unique(bucket.facts.begin(), bucket.facts.end(),
                      [](const Fact& a, const Fact& b) {
                        return a.ref == b.ref;
                      }),
          bucket.facts.end());
      bucket.sorted = true;
    }
    for (const Fact& fact : bucket.facts) {
      if (fact.at <= at) fn(store.resolve(fact.ref));
    }
    return;
  }
}

JobOutput run_wordcount(const CorpusStore& store, const JobConfig& config,
                        const JobRunOptions& options) {
  JobOutput output;
  const MapperInfo mapper = mapper_info(config.mapper_version);
  const Corpus& corpus = store.corpus();

  // Report mode interns each tuple once and reports it by ref: the job's
  // constant tuples and each input line feed many derivations, which must
  // not re-hash them.
  ProvenanceRecorder* const recorder = options.recorder;
  JobFacts* const facts = options.facts;
  const auto intern = [recorder, facts](const Tuple& t) {
    return recorder != nullptr || facts != nullptr ? intern_tuple(t)
                                                   : kNoTupleRef;
  };
  const auto rule_name = [recorder](const std::string& name) {
    return recorder != nullptr ? intern_name(name) : kNoName;
  };
  auto report_base = [&](const Tuple& t, LogicalTime at, bool event = false) {
    const TupleRef ref = intern(t);
    if (recorder != nullptr) recorder->on_base_insert(ref, at, event);
    return ref;
  };
  auto log_metadata = [&](const Tuple& t, LogicalTime at) {
    if (options.metadata_log != nullptr) options.metadata_log->append_insert(t, at);
  };

  // --- job-global state at the jobtracker --------------------------------
  const Tuple global_conf =
      make("jobConfG", {"jt", kReducesKey, config.num_reducers});
  const Tuple global_code =
      make("mapperCodeG", {"jt", mapper.checksum, mapper.start});
  const TupleRef global_conf_ref = report_base(global_conf, 0);
  log_metadata(global_conf, 0);
  const TupleRef global_code_ref = report_base(global_code, 1);
  log_metadata(global_code, 1);

  // --- per-mapper setup: replicated config/code, conf entries, files -----
  for (std::size_t f = 0; f < corpus.files.size(); ++f) {
    const NodeName m = mapper_node(f);
    const Tuple placement = make("mapperAt", {"jt", m});
    const TupleRef placement_ref = report_base(placement, 2);
    log_metadata(placement, 2);
    const TupleRef reduces =
        intern(make("jobConf", {m, kReducesKey, config.num_reducers}));
    const TupleRef code =
        intern(make("mapperCode", {m, mapper.checksum, mapper.start}));
    if (recorder != nullptr) {
      recorder->report_derivation(reduces, rule_name("jc"),
                                  {global_conf_ref, placement_ref}, 1, 10);
      recorder->report_derivation(code, rule_name("mc"),
                                  {global_code_ref, placement_ref}, 1, 10);
    }
    if (facts != nullptr) {
      facts->add(reduces, 10);
      facts->add(code, 10);
    }
    std::vector<TupleRef> confdeps;
    for (int i = 0; i < config.model.conf_deps; ++i) {
      const Tuple dep = make("confDep", {m, conf_key(i), conf_value(i)});
      confdeps.push_back(report_base(dep, 2));
      log_metadata(dep, 2);
    }
    // Input-file identity: recompute the checksum per read unless cached
    // (section 6.4's dominating cost / optimization).
    std::string checksum = corpus.files[f].checksum;
    if (options.recompute_checksums) {
      std::string blob;
      for (const std::string& line : corpus.files[f].lines) {
        blob += line;
        blob += '\n';
      }
      checksum = checksum_hex(blob);
    }
    const Tuple file_id = make("fileIn", {m, corpus.files[f].name, checksum});
    report_base(file_id, 3);
    log_metadata(file_id, 3);

    // jobSetup: the digest over all config entries the job reads.
    const TupleRef setup =
        intern(make("jobSetup", {m, setup_digest(config.model.conf_deps)}));
    if (recorder != nullptr) {
      recorder->report_derivation(setup, rule_name("js"), confdeps,
                                  confdeps.size() - 1, 5);
    }
    if (facts != nullptr) facts->add(setup, 5);
  }

  // --- map + shuffle ------------------------------------------------------
  std::vector<NameRef> map_rules;
  for (int slot = 0; slot < config.model.slots; ++slot) {
    map_rules.push_back(rule_name("m" + std::to_string(slot)));
  }
  const NameRef shuffle_rule = rule_name("sh");
  const NameRef count_rule = rule_name("c1");
  std::size_t global_line = 0;
  for (std::size_t f = 0; f < corpus.files.size(); ++f) {
    const CorpusFile& file = corpus.files[f];
    const NodeName m = mapper_node(f);
    const TupleRef code =
        intern(make("mapperCode", {m, mapper.checksum, mapper.start}));
    const TupleRef file_id =
        intern(make("fileIn", {m, file.name, file.checksum}));
    const TupleRef reduces =
        intern(make("jobConf", {m, kReducesKey, config.num_reducers}));
    const TupleRef setup =
        intern(make("jobSetup", {m, setup_digest(config.model.conf_deps)}));

    for (std::size_t l = 0; l < file.lines.size(); ++l, ++global_line) {
      const LogicalTime lt = line_time(global_line);
      const TupleRef line =
          report_base(line_tuple(m, file, l), lt, /*is_event=*/true);
      ++output.lines;

      const std::vector<std::string> words = tokenize(file.lines[l]);
      for (int slot = 0; slot < config.model.slots; ++slot) {
        const std::size_t index =
            static_cast<std::size_t>(mapper.start + slot);
        if (index >= words.size()) break;
        const std::string& word = words[index];
        const LogicalTime et = lt + 1 + slot;
        const TupleRef emit = intern(
            make("mapEmit", {m, file.name, static_cast<std::int64_t>(l),
                             slot, word}));
        if (recorder != nullptr) {
          recorder->report_derivation(emit,
                                      map_rules[static_cast<std::size_t>(slot)],
                                      {line, file_id, code}, 0, et,
                                      /*is_event=*/true);
        }
        ++output.emissions;

        const int p = partition_of(word, config.num_reducers);
        const std::string reducer = "rd" + std::to_string(p);
        const TupleRef shuffled_ref =
            intern(word_at_tuple(reducer, word, file.name, l, slot));
        if (recorder != nullptr) {
          recorder->report_derivation(shuffled_ref, shuffle_rule,
                                      {emit, reduces, setup}, 0, et + 10);
        }
        if (facts != nullptr) facts->add(shuffled_ref, et + 10);

        // The reducer's running count: each contribution chains the
        // previous aggregate into its provenance, displacing it -- exactly
        // what the declarative `agg count` rule c1 produces.
        const int new_count = ++output.counts[reducer][word];
        const TupleRef count_ref =
            intern(make("wordCount", {reducer, word, new_count}));
        if (recorder != nullptr) {
          std::vector<TupleRef> chain = {shuffled_ref};
          if (new_count > 1) {
            const TupleRef previous =
                intern(make("wordCount", {reducer, word, new_count - 1}));
            recorder->on_base_delete(previous, et + 11);
            chain.push_back(previous);
          }
          recorder->report_derivation(count_ref, count_rule, chain, 0,
                                      et + 11);
        }
        if (facts != nullptr) facts->add(count_ref, et + 11);
      }
    }
  }
  return output;
}

EventLog declarative_job_log(const CorpusStore& store,
                             const JobConfig& config) {
  EventLog log;
  const MapperInfo mapper = mapper_info(config.mapper_version);
  const Corpus& corpus = store.corpus();
  log.append_insert(
      make("jobConfG", {"jt", kReducesKey, config.num_reducers}), 0);
  log.append_insert(
      make("mapperCodeG", {"jt", mapper.checksum, mapper.start}), 1);
  for (std::size_t f = 0; f < corpus.files.size(); ++f) {
    const NodeName m = mapper_node(f);
    log.append_insert(make("mapperAt", {"jt", m}), 2);
    for (int i = 0; i < config.model.conf_deps; ++i) {
      log.append_insert(make("confDep", {m, conf_key(i), conf_value(i)}), 2);
    }
    log.append_insert(
        make("fileIn", {m, corpus.files[f].name, corpus.files[f].checksum}),
        3);
  }
  std::size_t global_line = 0;
  for (std::size_t f = 0; f < corpus.files.size(); ++f) {
    const CorpusFile& file = corpus.files[f];
    for (std::size_t l = 0; l < file.lines.size(); ++l, ++global_line) {
      log.append_insert(line_tuple(mapper_node(f), file, l),
                        line_time(global_line));
    }
  }
  return log;
}

// ---------------------------------------------------------------------------

namespace {

/// StateView over an imperative job run: base tuples are synthesized from
/// the (delta-adjusted) configuration and the corpus; derived facts come
/// from the run.
class JobStateView final : public StateView {
 public:
  JobStateView(const CorpusStore& store, JobConfig config,
               std::shared_ptr<const JobFacts> facts)
      : store_(&store),
        config_(std::move(config)),
        mapper_(mapper_info(config_.mapper_version)),
        facts_(std::move(facts)) {}

  [[nodiscard]] bool existed_at(const Tuple& tuple,
                                LogicalTime at) const override {
    bool found = false;
    scan_table(tuple.location(), tuple.table(), at, [&](const Tuple& t) {
      if (t == tuple) found = true;
    });
    return found;
  }

  void scan_table(
      const NodeName& node, const std::string& table, LogicalTime at,
      const std::function<void(const Tuple&)>& fn) const override {
    const auto file_index = mapper_index(node);
    const Corpus& corpus = store_->corpus();
    if (table == "jobConfG") {
      if (node == "jt" && at >= 0) {
        fn(Tuple("jobConfG", {Value("jt"), Value(kReducesKey),
                              Value(config_.num_reducers)}));
      }
      return;
    }
    if (table == "mapperCodeG") {
      if (node == "jt" && at >= 1) {
        fn(Tuple("mapperCodeG", {Value("jt"), Value(mapper_.checksum),
                                 Value(mapper_.start)}));
      }
      return;
    }
    if (table == "mapperAt") {
      if (node == "jt" && at >= 2) {
        for (std::size_t f = 0; f < corpus.files.size(); ++f) {
          fn(Tuple("mapperAt", {Value("jt"), Value(mapper_node(f))}));
        }
      }
      return;
    }
    if (table == "jobConf") {
      if (file_index && at >= 10) {
        fn(Tuple("jobConf", {Value(node), Value(kReducesKey),
                             Value(config_.num_reducers)}));
      }
      return;
    }
    if (table == "mapperCode") {
      if (file_index && at >= 10) {
        fn(Tuple("mapperCode", {Value(node), Value(mapper_.checksum),
                                Value(mapper_.start)}));
      }
      return;
    }
    if (table == "confDep") {
      if (!file_index || at < 2) return;
      for (int i = 0; i < config_.model.conf_deps; ++i) {
        fn(Tuple("confDep", {Value(node), Value(conf_key(i)),
                             Value(conf_value(i))}));
      }
      return;
    }
    if (table == "fileIn") {
      if (!file_index || at < 3 || *file_index >= corpus.files.size()) return;
      fn(Tuple("fileIn", {Value(node), Value(corpus.files[*file_index].name),
                          Value(corpus.files[*file_index].checksum)}));
      return;
    }
    if (table == "lineIn") {
      if (!file_index || *file_index >= corpus.files.size()) return;
      std::size_t global = 0;
      for (std::size_t f = 0; f < *file_index; ++f) {
        global += corpus.files[f].lines.size();
      }
      const CorpusFile& file = corpus.files[*file_index];
      for (std::size_t l = 0; l < file.lines.size(); ++l) {
        if (line_time(global + l) <= at) fn(line_tuple(node, file, l));
      }
      return;
    }
    // Derived facts (jobSetup, wordAt, wordCount).
    facts_->scan(table, node, at, fn);
  }

 private:
  static std::optional<std::size_t> mapper_index(const NodeName& node) {
    if (node.size() < 2 || node[0] != 'm') return std::nullopt;
    try {
      return static_cast<std::size_t>(std::stoull(node.substr(1)));
    } catch (...) {
      return std::nullopt;
    }
  }

  const CorpusStore* store_;
  JobConfig config_;
  MapperInfo mapper_;
  std::shared_ptr<const JobFacts> facts_;
};

}  // namespace

BadRun WordCountReplayProvider::replay_bad(const Delta& delta) {
  // Interpret Δ as configuration changes: the reducer count, the deployed
  // mapper version (identified by its bytecode checksum), or other config
  // entries. Deletions are the displacement halves of changes; inserts win.
  JobConfig config = base_config_;
  for (const DeltaOp& op : delta) {
    if (op.kind != DeltaOp::Kind::kInsert) continue;
    if (op.tuple.table() == "jobConfG" &&
        op.tuple.at(1).as_string() == kReducesKey) {
      config.num_reducers = static_cast<int>(op.tuple.at(2).as_int());
    } else if (op.tuple.table() == "mapperCodeG") {
      if (auto info = mapper_by_checksum(op.tuple.at(1).as_string())) {
        config.mapper_version = info->version;
      }
    }
  }
  last_config_ = config;

  auto recorder = std::make_shared<ProvenanceRecorder>();
  auto facts = std::make_shared<JobFacts>();
  JobRunOptions options;
  options.recorder = recorder.get();
  options.facts = facts.get();
  run_wordcount(*store_, config, options);

  BadRun run;
  run.graph = std::shared_ptr<const ProvenanceGraph>(recorder,
                                                     &recorder->graph());
  run.state = std::make_shared<JobStateView>(*store_, config, facts);
  return run;
}

}  // namespace dp::mapred
