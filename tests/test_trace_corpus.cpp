// The committed trace corpus replays exactly: every corpus/*.trace file
// must reproduce its recorded metrics through the replay adversary (the
// kk/trace_replay machinery), and the at-most-once guarantee must hold on
// every replay — plain KK with zero duplicates, Write-All flagged as the
// legal-duplication family it is.
#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "exp/engine.hpp"
#include "svc/corpus.hpp"

#ifndef AMO_CORPUS_DIR
#define AMO_CORPUS_DIR "corpus"
#endif

namespace amo {
namespace {

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  const std::filesystem::path dir(AMO_CORPUS_DIR);
  if (std::filesystem::is_directory(dir)) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".trace") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(TraceCorpus, CommittedFilesExist) {
  // The corpus is part of the repo contract: the two ROADMAP entries must
  // be present (more may join later).
  const auto files = corpus_files();
  ASSERT_GE(files.size(), 2u) << "corpus dir: " << AMO_CORPUS_DIR;
}

TEST(TraceCorpus, EveryFileReplaysToItsExpectations) {
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.string());
    const svc::corpus_load_result loaded =
        svc::load_corpus_file(path.string().c_str());
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    ASSERT_TRUE(loaded.entry.has_expectations)
        << "committed corpus files must carry an expect line";

    const exp::run_report replayed = exp::run(loaded.entry.spec);
    std::string why;
    EXPECT_TRUE(svc::check_expectations(loaded.entry, replayed, why)) << why;
    EXPECT_TRUE(replayed.at_most_once);
    if (loaded.entry.spec.algo == exp::algo_family::kk) {
      // Lemma 4.1: plain KK never duplicates, whatever the schedule.
      EXPECT_EQ(replayed.perform_events, replayed.effectiveness);
    }
  }
}

TEST(TraceCorpus, ReplayIsDeterministic) {
  // Two replays of the same file are equivalent() — the property that
  // makes a corpus file a permanent pin and not a flaky snapshot.
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.string());
    const svc::corpus_load_result loaded =
        svc::load_corpus_file(path.string().c_str());
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    const exp::run_report a = exp::run(loaded.entry.spec);
    const exp::run_report b = exp::run(loaded.entry.spec);
    EXPECT_TRUE(exp::equivalent(a, b));
  }
}

TEST(TraceCorpus, RenderParseRoundTrip) {
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.string());
    const svc::corpus_load_result loaded =
        svc::load_corpus_file(path.string().c_str());
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    const std::string rendered = svc::render_corpus(loaded.entry, "rt");
    const svc::corpus_load_result again =
        svc::parse_corpus(rendered, loaded.entry.name);
    ASSERT_TRUE(again.ok()) << again.error;
    EXPECT_EQ(again.entry.spec, loaded.entry.spec);
    EXPECT_EQ(again.entry.expect_effectiveness,
              loaded.entry.expect_effectiveness);
    EXPECT_EQ(again.entry.expect_collisions, loaded.entry.expect_collisions);
    EXPECT_EQ(again.entry.expect_duplicates, loaded.entry.expect_duplicates);
    EXPECT_EQ(again.entry.expect_steps, loaded.entry.expect_steps);
    EXPECT_EQ(again.entry.expect_quiescent, loaded.entry.expect_quiescent);
  }
}

TEST(TraceCorpus, LoaderRejectsMalformedFiles) {
  const char* bad[] = {
      "",                                           // empty
      "trace s1 s2\n",                              // no spec
      "spec algo=kk n=8 m=2\n",                     // no trace
      "spec algo=nope n=8 m=2\ntrace s1\n",         // unknown algo
      "spec algo=kk n=8 m=2\ntrace s1 x9\n",        // malformed trace
      "spec algo=kk\ntrace s1\n",                   // n/m unset
      "spec algo=kk n=8 m=2\nspec n=9 m=2\ntrace s1\n",  // duplicate spec
      "spek algo=kk n=8 m=2\ntrace s1\n",           // unknown line kind
      "spec algo=kk n=8 m=2 beta\ntrace s1\n",      // bare token
      "spec algo=kk n=8 m=2 free_set=fenwick\ntrace s1\n",  // retired set
      "spec algo=kk n=8 m=2 free_set=ostree\ntrace s1\n",   // retired set
  };
  for (const char* doc : bad) {
    SCOPED_TRACE(doc);
    EXPECT_FALSE(svc::parse_corpus(doc, "bad").ok());
  }
}

TEST(TraceCorpus, LoaderAcceptsTabsAndTrailingComments) {
  // Every line kind shares one token grammar: tabs separate tokens and a
  // '#' token ends the line, on trace lines as on spec/expect lines.
  const char* good[] = {
      "spec algo=kk n=8 m=2\ntrace\ts1\ts2\tc1\n",     // tab-separated
      "spec algo=kk n=8 m=2\ntrace s1 s2 c1  # note\n",  // trailing comment
  };
  for (const char* doc : good) {
    SCOPED_TRACE(doc);
    const svc::corpus_load_result loaded = svc::parse_corpus(doc, "good");
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    EXPECT_EQ(loaded.entry.spec.adversary.name, "replay:s1 s2 c1");
  }
}

}  // namespace
}  // namespace amo
