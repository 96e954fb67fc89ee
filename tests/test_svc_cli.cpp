// The one option table (svc/cli): the CLI, job lines, canonical lines and
// dispatch child arguments share its grammar, so a knob is checked and
// spelled the same way everywhere; the option set and the wire spellings
// are pinned; and the manuals under docs/ name no flag or scenario the
// binary does not know.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/registry.hpp"
#include "svc/cli.hpp"
#include "svc/job.hpp"

namespace amo {
namespace {

bool parse_argv(const std::vector<std::string>& args, svc::cli_options& opt,
                std::string& error) {
  std::vector<const char*> argv = {"amo_lab", "submit"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return svc::parse_cli(static_cast<int>(argv.size()), argv.data(), 2, opt,
                        error);
}

std::string line_error(const std::string& line) {
  svc::job j;
  bool has_job = false;
  std::string error;
  EXPECT_FALSE(svc::parse_job_line(line, 1, j, has_job, error)) << line;
  return error;
}

TEST(SvcCli, BadNumbersAreRejectedAlikeOnTheCliAndOnAJobLine) {
  // The spellings the CLI used to swallow: strtoull read "abc" as 0, "-1"
  // as 2^64-1, "3x" as 3, and eps= truncated to 32 bits.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"n", "abc"}, {"m", "-1"}, {"eps", "4294967297"}, {"seeds", "3x"},
      {"beta", ""}, {"seed", "18446744073709551616"}, {"replicas", "+1"}};
  for (const auto& [key, value] : bad) {
    svc::cli_options opt;
    std::string error;
    EXPECT_FALSE(parse_argv({"kk/round_robin", "--" + key + "=" + value}, opt,
                            error))
        << key;
    const std::string want = "bad " + key + "= value '" + value + "'";
    EXPECT_EQ(error, want);
    EXPECT_EQ(line_error("kk/round_robin " + key + "=" + value),
              "line 1: " + want);
  }
  // Every numeric knob of the table takes the same decimal grammar.
  for (const svc::option_spec& o : svc::option_table()) {
    if (o.kind != svc::value_kind::count && o.kind != svc::value_kind::u32) {
      continue;
    }
    svc::cli_options opt;
    std::string error;
    EXPECT_FALSE(parse_argv({"--" + std::string(o.cli) + "=7q"}, opt, error))
        << o.cli;
    EXPECT_EQ(error, "bad " + std::string(o.cli) + "= value '7q'");
  }
}

TEST(SvcCli, SecondsAndTolerancesMustBeFiniteAndNonNegative) {
  for (const std::string flag : {"tol", "deadline-s", "heartbeat-s", "stall-s",
                                 "wait-s"}) {
    for (const std::string value : {"-1", "x", "1e999", "nan", "inf", ""}) {
      svc::cli_options opt;
      std::string error;
      EXPECT_FALSE(parse_argv({"--" + flag + "=" + value}, opt, error))
          << flag << "=" << value;
    }
  }
  svc::cli_options opt;
  std::string error;
  ASSERT_TRUE(parse_argv({"--tol=0.02", "--deadline-s=+1.5", "--wait-s=0"},
                         opt, error))
      << error;
  EXPECT_EQ(opt.diff.tolerance, 0.02);
  EXPECT_EQ(opt.dispatch.deadline_s, 1.5);
}

constexpr const char* kEveryKnobLine =
    "kk/round_robin iterative/round_robin n=1000 m=7 beta=9 eps=3 seed=42 "
    "seeds=5 replicas=4 scheduled-only no-timing shard=1/3 "
    "out=x.amoc format=colfmt";

const std::vector<std::string> kEveryKnobArgs = {
    "kk/round_robin",   "iterative/round_robin", "--format=colfmt",
    "--out=x.amoc",     "--shard=1/3",           "--no-timing",
    "--scheduled-only", "--replicas=4",          "--seeds=5",
    "--seed=42",        "--eps=3",               "--beta=9",
    "--m=7",            "--n=1000"};

TEST(SvcCli, CliAndLineSpellingsParseToEqualJobs) {
  svc::cli_options opt;
  std::string error;
  ASSERT_TRUE(parse_argv(kEveryKnobArgs, opt, error)) << error;
  svc::job from_cli = svc::cli_job(opt);
  from_cli.line = 1;

  svc::job from_line;
  bool has_job = false;
  ASSERT_TRUE(svc::parse_job_line(kEveryKnobLine, 1, from_line, has_job, error))
      << error;
  ASSERT_TRUE(has_job);
  EXPECT_EQ(from_cli, from_line);
  EXPECT_EQ(from_line.params.eps_inv, 3u);
  EXPECT_TRUE(from_line.have_shard && from_line.have_format);
}

TEST(SvcCli, CanonicalLinesAreByteStable) {
  // Canonical lines are the serve FIFO wire format; these strings were
  // produced by the hand-written to_line the table replaced.
  svc::job j;
  bool has_job = false;
  std::string error;
  ASSERT_TRUE(svc::parse_job_line(kEveryKnobLine, 1, j, has_job, error));
  EXPECT_EQ(svc::to_line(j), kEveryKnobLine);

  svc::job defaults;
  defaults.scenarios = {"kk/random"};
  EXPECT_EQ(svc::to_line(defaults),
            "kk/random n=4096 m=4 beta=0 eps=2 seed=1 seeds=2 replicas=1");
  defaults.out = "o.json";
  EXPECT_EQ(svc::to_line(defaults),
            "kk/random n=4096 m=4 beta=0 eps=2 seed=1 seeds=2 replicas=1 "
            "out=o.json");
}

TEST(SvcCli, DispatchChildArgsAreByteStable) {
  // Part of the dispatcher's args fingerprint: a changed spelling would
  // orphan every manifest an earlier build checkpointed.
  svc::cli_options opt;
  std::string error;
  std::vector<std::string> args = kEveryKnobArgs;
  args.erase(args.begin() + 2, args.begin() + 5);  // format, out, shard
  args.push_back("--pool=2");
  args.push_back("--shards=3");
  ASSERT_TRUE(parse_argv(args, opt, error)) << error;
  EXPECT_EQ(svc::child_args(opt),
            "sweep kk/round_robin iterative/round_robin --n=1000 --m=7 "
            "--beta=9 --eps=3 --seed=42 --seeds=5 --replicas=4 --pool=2 "
            "--scheduled-only --no-timing --quiet");
  EXPECT_EQ(svc::child_args(svc::cli_options{}),
            "sweep --n=4096 --m=4 --beta=0 --eps=2 --seed=1 --seeds=2 "
            "--replicas=1 --pool=0 --quiet");
}

TEST(SvcCli, TheOptionSetIsPinnedAndHelpListsEveryOption) {
  const std::set<std::string> want = {
      "n",        "m",           "beta",        "eps",        "seed",
      "seeds",    "replicas",    "pool",        "scheduled-only",
      "no-timing", "shard",      "out",         "format",
      "trace-out", "check",      "quiet",       "jobs",       "once",
      "heartbeat-s", "stall-s",  "to",          "shards",     "retries",
      "deadline-s", "inject",    "resume",      "command",    "dir",
      "keep-shards", "manifest", "wait-s",      "tol",        "dist-test"};
  std::set<std::string> have;
  const std::string help = svc::options_help();
  for (const svc::option_spec& o : svc::option_table()) {
    have.emplace(o.cli);
    EXPECT_NE(help.find("--" + std::string(o.cli)), std::string::npos)
        << o.cli;
    EXPECT_EQ(svc::find_option(o.cli), &o);
    if (!o.key.empty()) {
      EXPECT_EQ(svc::find_key(o.key), &o);
    }
  }
  EXPECT_EQ(have, want);
  EXPECT_EQ(have.size(), svc::option_table().size());  // no duplicate rows

  // Job-line keys: the knobs minus CLI-only options, each spelled like its
  // flag.
  std::set<std::string> keys;
  for (const svc::option_spec& o : svc::option_table()) {
    if (!o.key.empty()) keys.emplace(o.key);
  }
  EXPECT_EQ(keys, (std::set<std::string>{
                      "n", "m", "beta", "eps", "seed", "seeds", "replicas",
                      "scheduled-only", "no-timing", "shard", "out",
                      "format"}));
  for (const svc::option_spec& o : svc::option_table()) {
    if (!o.key.empty()) {
      EXPECT_EQ(o.key, o.cli);
    }
  }
}

TEST(SvcCli, FlagsTakeNoValueAndValuedOptionsNeedOne) {
  for (const std::string arg :
       {"--resume=1", "--n", "--quiet=yes", "-n=1", "--nope=1", "--"}) {
    svc::cli_options opt;
    std::string error;
    EXPECT_FALSE(parse_argv({arg}, opt, error)) << arg;
    EXPECT_EQ(error, "unknown option '" + arg + "'");
  }
  EXPECT_NE(line_error("kk/round_robin scheduled-only=1")
                .find("unknown key 'scheduled-only='"),
            std::string::npos);
  EXPECT_NE(line_error("kk/round_robin pool=2").find("unknown key 'pool='"),
            std::string::npos);
  // There is no replica-grouping knob: a seed-independent cell runs once,
  // every other replica is its own task.
  EXPECT_NE(line_error("kk/round_robin batch=8").find("unknown key 'batch='"),
            std::string::npos);
}

// --- the manuals name nothing the binary does not know -------------------

std::vector<std::string> doc_texts() {
  std::vector<std::filesystem::path> files = {
      std::filesystem::path(AMO_DOCS_DIR) / ".." / "README.md"};
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(AMO_DOCS_DIR)) {
    if (e.is_regular_file()) files.push_back(e.path());
  }
  std::vector<std::string> texts;
  for (const std::filesystem::path& f : files) {
    std::ifstream in(f, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_TRUE(in.good() || in.eof()) << f;
    texts.push_back(text.str());
  }
  return texts;
}

std::set<std::string> matches(const std::string& pattern, int group) {
  std::set<std::string> out;
  const std::regex re(pattern);
  for (const std::string& text : doc_texts()) {
    for (auto it = std::sregex_iterator(text.begin(), text.end(), re);
         it != std::sregex_iterator(); ++it) {
      out.insert((*it)[group].str());
    }
  }
  return out;
}

TEST(SvcCliDocs, EveryDocumentedFlagIsInTheTable) {
  const std::set<std::string> flags = matches("--([a-z][a-z0-9-]+)", 1);
  EXPECT_GT(flags.size(), 10u) << "docs not found under " << AMO_DOCS_DIR;
  for (const std::string& flag : flags) {
    // Foreign flags the manuals quote: ctest, cmake, Google Benchmark.
    bool foreign = false;
    for (const char* prefix :
         {"test-dir", "output-on-failure", "build", "benchmark"}) {
      foreign = foreign || flag.rfind(prefix, 0) == 0;
    }
    if (foreign) continue;
    EXPECT_NE(svc::find_option(flag), nullptr)
        << "documented flag --" << flag << " is not an amo_lab option";
  }
}

TEST(SvcCliDocs, EveryDocumentedScenarioIsRegistered) {
  const std::set<std::string> scenarios =
      matches("amo_lab (run|sweep) ([a-z0-9_]+/[a-z0-9_+]+)", 2);
  EXPECT_FALSE(scenarios.empty()) << "docs not found under " << AMO_DOCS_DIR;
  for (const std::string& name : scenarios) {
    EXPECT_NE(exp::find_scenario(name), nullptr)
        << "documented scenario " << name << " is not registered";
  }
}

}  // namespace
}  // namespace amo
