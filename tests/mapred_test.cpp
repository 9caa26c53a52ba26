// Tests for the MapReduce substrate: corpus, model, the imperative job and
// its instrumentation, and the four paper scenarios end-to-end.
#include <gtest/gtest.h>

#include <algorithm>

#include "mapred/scenario.h"

namespace dp::mapred {
namespace {

TEST(Corpus, DeterministicAndChecksummed) {
  const Corpus a = synthetic_corpus();
  const Corpus b = synthetic_corpus();
  ASSERT_EQ(a.files.size(), b.files.size());
  for (std::size_t i = 0; i < a.files.size(); ++i) {
    EXPECT_EQ(a.files[i].checksum, b.files[i].checksum);
    EXPECT_EQ(a.files[i].lines, b.files[i].lines);
  }
  EXPECT_GT(a.total_bytes(), 0u);
}

TEST(Corpus, StoreLooksUpByChecksumAndName) {
  CorpusStore store(synthetic_corpus());
  const CorpusFile& first = store.corpus().files[0];
  EXPECT_EQ(store.by_checksum(first.checksum), &store.corpus().files[0]);
  EXPECT_EQ(store.by_name(first.name), &store.corpus().files[0]);
  EXPECT_EQ(store.by_checksum("nope"), nullptr);
}

TEST(Model, SourceParsesAndScalesWithConfig) {
  const Program model = make_model();
  EXPECT_NE(model.find_rule("m0"), nullptr);
  EXPECT_NE(model.find_rule("m7"), nullptr);
  EXPECT_NE(model.find_rule("sh"), nullptr);
  EXPECT_NE(model.find_rule("js"), nullptr);
  // js depends on all configured conf entries.
  EXPECT_EQ(model.find_rule("js")->body.size(), 24u);
  const Program big = make_model({4, 24});
  EXPECT_EQ(big.find_rule("js")->body.size(), 24u);
  EXPECT_EQ(big.find_rule("m4"), nullptr);
}

TEST(Model, MapperVersionsDiffer) {
  const MapperInfo v1 = mapper_info("v1");
  const MapperInfo v2 = mapper_info("v2");
  EXPECT_EQ(v1.start, 0);
  EXPECT_EQ(v2.start, 1);
  EXPECT_NE(v1.checksum, v2.checksum);
  EXPECT_EQ(mapper_by_checksum(v2.checksum)->version, "v2");
  EXPECT_FALSE(mapper_by_checksum("bogus").has_value());
  EXPECT_THROW(mapper_info("v9"), ProgramError);
}

TEST(WordCount, CorrectCountsAndDeterminism) {
  CorpusStore store(synthetic_corpus());
  JobConfig config;
  const JobOutput a = run_wordcount(store, config);
  const JobOutput b = run_wordcount(store, config);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_GT(a.emissions, 0u);
  // Total count equals total emissions.
  std::size_t total = 0;
  for (const auto& [reducer, words] : a.counts) {
    for (const auto& [word, count] : words) {
      total += static_cast<std::size_t>(count);
    }
  }
  EXPECT_EQ(total, a.emissions);
}

TEST(WordCount, BuggyMapperDropsFirstWords) {
  CorpusStore store(synthetic_corpus());
  JobConfig good;
  JobConfig bad;
  bad.mapper_version = "v2";
  const JobOutput g = run_wordcount(store, good);
  const JobOutput b = run_wordcount(store, bad);
  // One emission fewer per line.
  EXPECT_EQ(b.emissions + g.lines, g.emissions);
}

TEST(WordCount, ReducerCountOnlyMovesWords) {
  CorpusStore store(synthetic_corpus());
  JobConfig good;
  JobConfig bad;
  bad.num_reducers = 2;
  const JobOutput g = run_wordcount(store, good);
  const JobOutput b = run_wordcount(store, bad);
  EXPECT_EQ(g.emissions, b.emissions);
  // Per-word totals are identical; only placement changes.
  std::map<std::string, int> g_total;
  std::map<std::string, int> b_total;
  for (const auto& [r, words] : g.counts) {
    for (const auto& [w, c] : words) g_total[w] += c;
  }
  for (const auto& [r, words] : b.counts) {
    for (const auto& [w, c] : words) b_total[w] += c;
  }
  EXPECT_EQ(g_total, b_total);
  EXPECT_NE(g.counts, b.counts);
}

TEST(WordCount, MetadataLogIsTinyRelativeToCorpus) {
  // Section 6.5: 26 kB of logs for 12.8 GB of data -- only metadata is
  // logged, never contents.
  CorpusConfig big;
  big.files = 8;
  big.lines_per_file = 2000;
  CorpusStore store(synthetic_corpus(big));
  JobConfig config;
  EventLog metadata;
  JobRunOptions options;
  options.metadata_log = &metadata;
  run_wordcount(store, config, options);
  EXPECT_GT(metadata.byte_size(), 0u);
  EXPECT_LT(metadata.byte_size(), store.corpus().total_bytes() / 4);
}

TEST(WordCount, InstrumentationReportsKeyValueProvenance) {
  CorpusStore store(synthetic_corpus());
  JobConfig config;
  ProvenanceRecorder recorder;
  JobFacts facts;
  JobRunOptions options;
  options.recorder = &recorder;
  options.facts = &facts;
  const JobOutput output = run_wordcount(store, config, options);
  EXPECT_GT(recorder.graph().size(), output.emissions * 3);
  // Every derived fact -- each shuffled pair and running count among them --
  // is locatable in the provenance graph at the time it was created.
  std::size_t count = 0;
  facts.for_each([&](TupleRef fact, LogicalTime created) {
    ++count;
    EXPECT_TRUE(recorder.graph().exist_at(fact, created).has_value())
        << global_store().to_string(fact) << " @" << created;
  });
  EXPECT_GE(count, 2 * output.emissions);
}

TEST(WordCount, FactScanListsATablesFactsOnANodeInTupleOrder) {
  CorpusStore store(synthetic_corpus());
  JobFacts facts;
  JobRunOptions options;
  options.facts = &facts;
  run_wordcount(store, JobConfig{}, options);
  std::vector<Tuple> scanned;
  facts.scan("wordAt", "rd0", kTimeInfinity,
             [&scanned](const Tuple& t) { scanned.push_back(t); });
  ASSERT_FALSE(scanned.empty());
  EXPECT_TRUE(std::is_sorted(scanned.begin(), scanned.end()));
  for (const Tuple& t : scanned) {
    EXPECT_EQ(t.table(), "wordAt");
    EXPECT_EQ(t.location(), "rd0");
  }
  // A time bound keeps only the facts created by then; an unknown node or
  // table yields nothing.
  std::size_t early = 0;
  facts.scan("wordAt", "rd0", line_time(1),
             [&early](const Tuple&) { ++early; });
  EXPECT_LT(early, scanned.size());
  std::size_t none = 0;
  facts.scan("wordAt", "m0", kTimeInfinity, [&none](const Tuple&) { ++none; });
  facts.scan("noSuchTable", "rd0", kTimeInfinity,
             [&none](const Tuple&) { ++none; });
  EXPECT_EQ(none, 0u);
}

TEST(WordCount, PartitionMatchesBuiltin) {
  // The imperative partitioner must be bit-identical to f_partition, or the
  // two variants would disagree.
  for (const std::string word : {"word00", "word13", "alpha", "z"}) {
    for (int r : {2, 3, 4, 7}) {
      const int imperative = partition_of(word, r);
      EXPECT_GE(imperative, 0);
      EXPECT_LT(imperative, r);
    }
  }
  EXPECT_EQ(partition_of("word00", 4), partition_of("word00", 4));
}

// ------------------------------------------------------------ scenarios --

class MrScenarioTest : public ::testing::TestWithParam<int> {};

TEST_P(MrScenarioTest, DiffProvPinpointsRootCause) {
  const Scenario s = all_scenarios()[static_cast<std::size_t>(GetParam())];
  const Diagnosis d = diagnose(s);
  ASSERT_EQ(d.result.status, DiffProvStatus::kSuccess)
      << s.name << ": " << d.result.to_string();
  ASSERT_EQ(d.result.changes.size(), 1u) << s.name << ": "
                                         << d.result.to_string();
  EXPECT_NE(d.result.changes[0].to_string().find(s.expected_root_cause),
            std::string::npos)
      << s.name << ": " << d.result.to_string();
  EXPECT_GT(d.good_tree.size(), 20u);
  EXPECT_GT(d.bad_tree.size(), 20u);
  // mapred::diagnose hands DiffProv the bad job's run, so DiffProv replays
  // only for its UpdateTree rounds.
  EXPECT_EQ(d.result.timing.replays, d.result.rounds) << s.name;
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, MrScenarioTest, ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name =
                               all_scenarios()[static_cast<std::size_t>(
                                                   info.param)]
                                   .name;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(MrScenarios, Mr1ChangeIsTheReducerCount) {
  const Diagnosis d = diagnose(mr1_declarative());
  ASSERT_TRUE(d.result.ok()) << d.result.to_string();
  const ChangeRecord& change = d.result.changes[0];
  ASSERT_TRUE(change.before && change.after);
  EXPECT_EQ(change.before->table(), "jobConfG");
  EXPECT_EQ(change.before->at(2).as_int(), 2);
  EXPECT_EQ(change.after->at(2).as_int(), 4);
}

TEST(MrScenarios, Mr2ChangeIsTheMapperChecksum) {
  const Diagnosis d = diagnose(mr2_imperative());
  ASSERT_TRUE(d.result.ok()) << d.result.to_string();
  const ChangeRecord& change = d.result.changes[0];
  ASSERT_TRUE(change.before && change.after);
  EXPECT_EQ(change.before->table(), "mapperCodeG");
  EXPECT_EQ(change.before->at(1).as_string(), mapper_info("v2").checksum);
  EXPECT_EQ(change.after->at(1).as_string(), mapper_info("v1").checksum);
}

TEST(MrScenarios, Mr2DeclarativeFindsTheMapperWhenALineRepeatsAWord) {
  // Figure 7's corpus shape at seed 1010. One line of part-7.txt carries
  // word00 at indices 0 and 1, so in the good job the second contribution's
  // aggregate reads a previous count that appeared one tick after the
  // contribution itself. The seed walk must still follow the contribution
  // (the recorded trigger), not the count chain, or the spines diverge at
  // the aggregate and DiffProv answers not-invertible.
  CorpusConfig corpus;
  corpus.files = 8;
  corpus.lines_per_file = 250;
  corpus.seed = 1010;
  const Diagnosis d = diagnose(mr2_declarative(corpus));
  ASSERT_TRUE(d.result.ok()) << d.result.to_string();
  ASSERT_EQ(d.result.changes.size(), 1u) << d.result.to_string();
  const ChangeRecord& change = d.result.changes[0];
  ASSERT_TRUE(change.before && change.after);
  EXPECT_EQ(change.before->table(), "mapperCodeG");
  EXPECT_EQ(change.before->at(1).as_string(), mapper_info("v2").checksum);
  EXPECT_EQ(change.after->at(1).as_string(), mapper_info("v1").checksum);
  EXPECT_EQ(d.result.rounds, 2u);
}

// The imperative scenarios at Figure 7's corpus scale, pinned across corpus
// seeds: their reports must not depend on how the job's view keeps its
// derived facts.
class MrImperativeReport : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MrImperativeReport, MatchesThePinnedReport) {
  CorpusConfig corpus;
  corpus.files = 8;
  corpus.lines_per_file = 250;
  corpus.seed = GetParam();
  EXPECT_EQ(diagnose(mr1_imperative(corpus)).result.to_string(),
            "DiffProv: success (1 round(s), 1 change(s))\n"
            "  change jobConfG(@jt, \"mapreduce.job.reduces\", 2) -> "
            "jobConfG(@jt, \"mapreduce.job.reduces\", 4)  [missing base "
            "tuple (made to appear)]\n");
  EXPECT_EQ(diagnose(mr2_imperative(corpus)).result.to_string(),
            "DiffProv: success (1 round(s), 1 change(s))\n"
            "  change mapperCodeG(@jt, \"618a27908ea6fd8d\", 1) -> "
            "mapperCodeG(@jt, \"618a64508ea768de\", 0)  [missing base "
            "tuple (made to appear)]\n");
}

INSTANTIATE_TEST_SUITE_P(Fig7Corpus, MrImperativeReport,
                         ::testing::Values(1, 2, 3, 1010, 4242));

TEST(MrScenarios, ImperativeAndDeclarativeAgreeOnTheRootCause) {
  const Diagnosis di = diagnose(mr1_imperative());
  const Diagnosis dd = diagnose(mr1_declarative());
  ASSERT_TRUE(di.result.ok()) << di.result.to_string();
  ASSERT_TRUE(dd.result.ok()) << dd.result.to_string();
  ASSERT_TRUE(di.result.changes[0].after && dd.result.changes[0].after);
  EXPECT_EQ(*di.result.changes[0].after, *dd.result.changes[0].after);
}

TEST(MrScenarios, ReplayProviderAppliesDeltaToConfig) {
  const Scenario s = mr1_imperative();
  WordCountReplayProvider provider(s.store, s.bad_config);
  Delta delta;
  delta.push_back({DeltaOp::Kind::kInsert,
                   Tuple("jobConfG", {Value("jt"), Value(kReducesKey),
                                      Value(4)}),
                   99});
  (void)provider.replay_bad(delta);
  EXPECT_EQ(provider.last_config().num_reducers, 4);
}

}  // namespace
}  // namespace dp::mapred
