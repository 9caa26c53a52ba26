#include "mapred/scenario.h"

namespace dp::mapred {

namespace {

/// Per-word corpus statistics, in deterministic corpus order.
struct WordStat {
  int total = 0;          // occurrences anywhere (the v1 count)
  int non_first = 0;      // occurrences at word index >= 1 (the v2 count)
  int last_index = 0;     // word index of the last occurrence
  bool first_somewhere = false;  // appears as some line's first word
};

std::map<std::string, WordStat> word_stats(const Corpus& corpus) {
  std::map<std::string, WordStat> stats;
  for (const CorpusFile& file : corpus.files) {
    for (const std::string& text : file.lines) {
      std::size_t pos = 0;
      int index = 0;
      while (pos < text.size()) {
        const std::size_t end = text.find(' ', pos);
        const std::size_t stop = end == std::string::npos ? text.size() : end;
        WordStat& stat = stats[text.substr(pos, stop - pos)];
        ++stat.total;
        if (index >= 1) ++stat.non_first;
        if (index == 0) stat.first_somewhere = true;
        stat.last_index = index;
        pos = stop + 1;
        ++index;
      }
    }
  }
  return stats;
}

Tuple word_count_tuple(const std::string& word, int reducers, int count) {
  return Tuple("wordCount",
               {Value("rd" + std::to_string(partition_of(word, reducers))),
                Value(word), Value(count)});
}

Scenario base_scenario(bool declarative, const CorpusConfig& corpus_config) {
  Scenario s;
  s.declarative = declarative;
  s.model = make_model();
  s.store = CorpusStore(synthetic_corpus(corpus_config));
  return s;
}

void setup_mr1(Scenario& s) {
  s.good_config.num_reducers = 4;
  s.bad_config.num_reducers = 2;  // the accidental change
  // Diagnose an output kv (word + count) that moved to a different output
  // file: the first word whose hash partitions differently under the two
  // reducer counts. Its count is unchanged; only the placement differs.
  const auto stats = word_stats(s.store.corpus());
  for (const auto& [word, stat] : stats) {
    if (partition_of(word, s.good_config.num_reducers) ==
        partition_of(word, s.bad_config.num_reducers)) {
      continue;
    }
    s.good_event =
        word_count_tuple(word, s.good_config.num_reducers, stat.total);
    s.bad_event =
        word_count_tuple(word, s.bad_config.num_reducers, stat.total);
    break;
  }
  s.expected_root_cause = std::string(kReducesKey);
  s.description =
      "Configuration change: mapreduce.job.reduces accidentally changed "
      "from 4 to 2; output kv pairs land in different output files than in "
      "the reference job.";
}

void setup_mr2(Scenario& s) {
  s.good_config.mapper_version = "v1";
  s.bad_config.mapper_version = "v2";  // drops the first word of each line
  // Diagnose an output count that shrank: a word that appears as some
  // line's first word (so v2 loses occurrences) but whose *last* occurrence
  // sits at word index >= 1 (so both jobs' final contribution comes from
  // the same input line, keeping the two trees' seeds aligned).
  const auto stats = word_stats(s.store.corpus());
  const int r = s.good_config.num_reducers;
  for (const auto& [word, stat] : stats) {
    if (!stat.first_somewhere || stat.non_first < 1 || stat.last_index < 1) {
      continue;
    }
    if (stat.non_first == stat.total) continue;  // count must actually drop
    s.good_event = word_count_tuple(word, r, stat.total);
    s.bad_event = word_count_tuple(word, r, stat.non_first);
    break;
  }
  s.expected_root_cause = mapper_info("v1").checksum;
  s.description =
      "Code change: the deployed mapper (identified by its bytecode "
      "checksum) drops the first word of every line; output counts shrink.";
}

}  // namespace

Scenario mr1_declarative(CorpusConfig corpus) {
  Scenario s = base_scenario(true, corpus);
  s.name = "MR1-D";
  setup_mr1(s);
  return s;
}

Scenario mr2_declarative(CorpusConfig corpus) {
  Scenario s = base_scenario(true, corpus);
  s.name = "MR2-D";
  setup_mr2(s);
  return s;
}

Scenario mr1_imperative(CorpusConfig corpus) {
  Scenario s = base_scenario(false, corpus);
  s.name = "MR1-I";
  setup_mr1(s);
  return s;
}

Scenario mr2_imperative(CorpusConfig corpus) {
  Scenario s = base_scenario(false, corpus);
  s.name = "MR2-I";
  setup_mr2(s);
  return s;
}

std::vector<Scenario> all_scenarios(CorpusConfig corpus) {
  std::vector<Scenario> out;
  out.push_back(mr1_declarative(corpus));
  out.push_back(mr2_declarative(corpus));
  out.push_back(mr1_imperative(corpus));
  out.push_back(mr2_imperative(corpus));
  return out;
}

Diagnosis diagnose(const Scenario& scenario, const DiffProvConfig& config) {
  // The reference tree comes from a separate, correct job execution.
  std::unique_ptr<ReplayProvider> good_provider;
  std::unique_ptr<ReplayProvider> bad_provider;
  EventLog good_log;
  EventLog bad_log;
  Topology topology;
  if (scenario.declarative) {
    good_log = declarative_job_log(scenario.store, scenario.good_config);
    bad_log = declarative_job_log(scenario.store, scenario.bad_config);
    good_provider = std::make_unique<LogReplayProvider>(
        scenario.model, topology, good_log);
    bad_provider = std::make_unique<LogReplayProvider>(scenario.model,
                                                       topology, bad_log);
  } else {
    good_provider = std::make_unique<WordCountReplayProvider>(
        scenario.store, scenario.good_config);
    bad_provider = std::make_unique<WordCountReplayProvider>(
        scenario.store, scenario.bad_config);
  }

  const BadRun good_run = good_provider->replay_bad({});
  auto good_tree = locate_tree(*good_run.graph, scenario.good_event);
  if (!good_tree) {
    throw ProgramError(scenario.name + ": reference event " +
                       scenario.good_event.to_string() +
                       " not found in the good job");
  }
  const BadRun bad_run = bad_provider->replay_bad({});
  auto bad_tree = locate_tree(*bad_run.graph, scenario.bad_event);
  if (!bad_tree) {
    throw ProgramError(scenario.name + ": event of interest " +
                       scenario.bad_event.to_string() +
                       " not found in the bad job");
  }

  DiffProv diffprov(scenario.model, *bad_provider, config);
  DiffProvResult result =
      diffprov.diagnose(*good_tree, scenario.bad_event, bad_run);
  return Diagnosis{std::move(*good_tree), std::move(*bad_tree),
                   std::move(result)};
}

}  // namespace dp::mapred
