// Tests for the dmx_sweep command-line front end.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/cli.hpp"

namespace dmx::harness {
namespace {

CliOptions parse(std::initializer_list<std::string> args) {
  return parse_cli(std::vector<std::string>(args));
}

TEST(Cli, Defaults) {
  const auto o = parse({});
  EXPECT_EQ(o.algorithm, "arbiter-tp");
  EXPECT_EQ(o.n_nodes, 10u);
  EXPECT_EQ(o.lambdas, std::vector<double>{0.5});
  EXPECT_EQ(o.requests, 100'000u);
  EXPECT_EQ(o.seeds, 3u);
  EXPECT_FALSE(o.csv);
  EXPECT_FALSE(o.help);
  EXPECT_FALSE(o.list);
}

TEST(Cli, ParsesEverything) {
  const auto o = parse({"--algo", "raymond", "--n", "16", "--lambda",
                        "0.1,0.2,1.5", "--requests", "5000", "--seeds", "7",
                        "--t-msg", "0.05", "--t-exec", "0.2", "--param",
                        "t_req=0.3", "--param", "order=priority", "--delay",
                        "uniform", "--jitter", "0.02", "--loss",
                        "PRIVILEGE=0.01", "--csv"});
  EXPECT_EQ(o.algorithm, "raymond");
  EXPECT_EQ(o.n_nodes, 16u);
  EXPECT_EQ(o.lambdas, (std::vector<double>{0.1, 0.2, 1.5}));
  EXPECT_EQ(o.requests, 5000u);
  EXPECT_EQ(o.seeds, 7u);
  EXPECT_DOUBLE_EQ(o.t_msg, 0.05);
  EXPECT_DOUBLE_EQ(o.t_exec, 0.2);
  EXPECT_DOUBLE_EQ(o.params.get_num("t_req", 0.0), 0.3);
  EXPECT_EQ(o.params.get_str("order", ""), "priority");
  EXPECT_EQ(o.delay_kind, DelayKind::kUniform);
  EXPECT_DOUBLE_EQ(o.jitter, 0.02);
  EXPECT_DOUBLE_EQ(o.loss_by_type.at("PRIVILEGE"), 0.01);
  EXPECT_TRUE(o.csv);
}

TEST(Cli, ParsesTransportKind) {
  EXPECT_EQ(parse({}).transport, TransportKind::kRaw);
  EXPECT_EQ(parse({"--transport", "raw"}).transport, TransportKind::kRaw);
  EXPECT_EQ(parse({"--transport", "reliable"}).transport,
            TransportKind::kReliable);
  EXPECT_THROW(parse({"--transport", "tcp"}), std::invalid_argument);
  EXPECT_THROW(parse({"--transport"}), std::invalid_argument);
}

TEST(Cli, ParsesJobs) {
  EXPECT_EQ(parse({}).jobs, 1u);  // serial by default
  EXPECT_EQ(parse({"--jobs", "8"}).jobs, 8u);
  EXPECT_EQ(parse({"--jobs", "0"}).jobs, 0u);  // 0 = hardware concurrency
  EXPECT_THROW(parse({"--jobs"}), std::invalid_argument);
  EXPECT_THROW(parse({"--jobs", "two"}), std::invalid_argument);
}

TEST(Cli, HelpAndList) {
  EXPECT_TRUE(parse({"--help"}).help);
  EXPECT_TRUE(parse({"-h"}).help);
  EXPECT_TRUE(parse({"--list"}).list);
}

TEST(Cli, Rejections) {
  EXPECT_THROW(parse({"--bogus"}), std::invalid_argument);
  EXPECT_THROW(parse({"--n"}), std::invalid_argument);          // missing value
  EXPECT_THROW(parse({"--n", "0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--n", "abc"}), std::invalid_argument);
  EXPECT_THROW(parse({"--lambda", "0.5,-1"}), std::invalid_argument);
  EXPECT_THROW(parse({"--lambda", ""}), std::invalid_argument);
  EXPECT_THROW(parse({"--seeds", "0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--param", "noequals"}), std::invalid_argument);
  EXPECT_THROW(parse({"--param", "=x"}), std::invalid_argument);
  EXPECT_THROW(parse({"--delay", "warp"}), std::invalid_argument);
  EXPECT_THROW(parse({"--loss", "PRIVILEGE"}), std::invalid_argument);
  EXPECT_THROW(parse({"--t-msg", "1.5x"}), std::invalid_argument);
}

TEST(Cli, SharedValueParsersRejectTrailingJunk) {
  // dmx_trace and dmx_verify parse with these too.
  EXPECT_EQ(parse_u64("--n", "3"), 3u);
  EXPECT_THROW(parse_u64("--n", "3x"), std::invalid_argument);
  EXPECT_THROW(parse_u64("--n", "-1"), std::invalid_argument);
  EXPECT_DOUBLE_EQ(parse_double("--until", "2.5"), 2.5);
  EXPECT_THROW(parse_double("--until", "2.5x"), std::invalid_argument);
}

TEST(Cli, ParamValuesAreNumbersOrNames) {
  mutex::ParamSet p;
  parse_param("--param", "tau=2", p);
  parse_param("--param", "order=priority", p);
  parse_param("--param", "t_req=0.5x", p);
  EXPECT_DOUBLE_EQ(p.get_num("tau", 0.0), 2.0);
  EXPECT_EQ(p.get_str("order", "fcfs"), "priority");
  // A malformed number is kept as a name, so reading it as a time fails
  // instead of silently keeping the default.
  EXPECT_THROW((void)p.get_time("t_req", sim::SimTime::zero()),
               std::invalid_argument);
  EXPECT_THROW(parse_param("--param", "t_req", p), std::invalid_argument);
}

TEST(Cli, RunRejectsOutOfRangeParamsUpFront) {
  const std::pair<const char*, const char*> cases[] = {
      {"tau=-1", "tau"}, {"t_req=-1", "t_req"}, {"t_req=0.5x", "t_req"}};
  for (const auto& [kv, key] : cases) {
    CliOptions o = parse({"--param", kv, "--requests", "100", "--seeds", "1"});
    std::ostringstream os;
    try {
      (void)run_cli(o, os);
      ADD_FAILURE() << kv << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(os.str().find("drained"), std::string::npos) << os.str();
  }
}

TEST(Cli, RunHelpPrintsUsage) {
  CliOptions o;
  o.help = true;
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0);
  EXPECT_NE(os.str().find("usage:"), std::string::npos);
}

TEST(Cli, RunListPrintsAlgorithms) {
  CliOptions o;
  o.list = true;
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0);
  EXPECT_NE(os.str().find("arbiter-tp"), std::string::npos);
  EXPECT_NE(os.str().find("suzuki-kasami"), std::string::npos);
}

/// The message of the configuration error run_cli throws; fails the test
/// when it runs instead, or when it wrote anything to the report stream.
std::string config_error(const CliOptions& o) {
  std::ostringstream os;
  try {
    (void)run_cli(o, os);
    ADD_FAILURE() << "run_cli accepted the configuration";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(os.str(), "");
    return e.what();
  }
  return "";
}

TEST(Cli, RunUnknownAlgorithmFails) {
  CliOptions o;
  o.algorithm = "nope";
  EXPECT_NE(config_error(o).find("unknown algorithm \"nope\""),
            std::string::npos);
}

TEST(Cli, RunSmallSweepProducesTable) {
  CliOptions o;
  o.lambdas = {0.2, 1.0};
  o.requests = 1'000;
  o.seeds = 1;
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0);
  const std::string out = os.str();
  EXPECT_NE(out.find("msgs/cs"), std::string::npos);
  EXPECT_NE(out.find("0.200"), std::string::npos);
  EXPECT_NE(out.find("1.000"), std::string::npos);
  EXPECT_EQ(out.find("VIOLATED"), std::string::npos);
}

TEST(Cli, ParsesLockServiceFlags) {
  // Single-resource defaults keep the classic sweep path.
  const auto d = parse({});
  EXPECT_EQ(d.n_resources, 1u);
  EXPECT_DOUBLE_EQ(d.zipf_s, 0.9);
  EXPECT_EQ(d.shard_algo_hot, "arbiter-tp");
  EXPECT_EQ(d.shard_algo_cold, "path-reversal");

  const auto o = parse({"--resources", "64", "--zipf-s", "1.2",
                        "--shard-algo", "hot=suzuki-kasami,cold=centralized"});
  EXPECT_EQ(o.n_resources, 64u);
  EXPECT_DOUBLE_EQ(o.zipf_s, 1.2);
  EXPECT_EQ(o.shard_algo_hot, "suzuki-kasami");
  EXPECT_EQ(o.shard_algo_cold, "centralized");
  // Partial assignment leaves the other role at its default.
  EXPECT_EQ(parse({"--shard-algo", "cold=centralized"}).shard_algo_hot,
            "arbiter-tp");
}

TEST(Cli, LockServiceFlagRejections) {
  EXPECT_THROW(parse({"--resources"}), std::invalid_argument);
  EXPECT_THROW(parse({"--resources", "0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--zipf-s", "-0.5"}), std::invalid_argument);
  EXPECT_THROW(parse({"--zipf-s", "abc"}), std::invalid_argument);
  EXPECT_THROW(parse({"--shard-algo", "warm=raymond"}),
               std::invalid_argument);  // unknown role key
  EXPECT_THROW(parse({"--shard-algo", "hot"}), std::invalid_argument);
}

TEST(Cli, LockServiceRejectsSweepOnlyFlagsByName) {
  const CliOptions o =
      parse({"--resources", "4", "--algo", "raymond", "--lambda", "1,2",
             "--seeds", "5",
             "--delay", "uniform", "--jitter", "0.01", "--loss",
             "PRIVILEGE=0.5", "--fault", "t=1 crash 0", "--transport",
             "reliable", "--stall", "5", "--max-events", "100"});
  const std::string error = config_error(o);  // nothing ran
  for (const char* flag :
       {"--algo", "--lambda", "--seeds", "--delay", "--jitter", "--loss",
        "--fault", "--transport", "--stall", "--max-events"}) {
    EXPECT_NE(error.find(std::string("  - ") + flag), std::string::npos)
        << flag << " not named in:\n" << error;
  }
}

TEST(Cli, NonFiniteValuesFailUpFrontNamingTheField) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {{{"--loss", "PRIVILEGE=nan"}, "PRIVILEGE"},
       {{"--stall", "nan"}, "stall_threshold"},
       {{"--t-msg", "inf"}, "t_msg"},
       {{"--lambda", "nan"}, "lambda"},
       {{"--t-exec", "nan"}, "t_exec"},
       {{"--delay", "uniform", "--jitter", "inf"}, "delay_jitter"},
       {{"--zipf-s", "nan", "--resources", "8"}, "zipf_s"}};
  for (const auto& [args, field] : cases) {
    const std::string error = config_error(parse_cli(args));
    EXPECT_NE(error.find(field), std::string::npos) << error;
  }
}

TEST(Cli, FaultPlanErrorsComeWithEveryOtherConfigError) {
  // One error lists the config problem and both plan problems, found by
  // FaultPlan::validate before any job runs.  Node 9 is outside --n 5.
  const std::string error = config_error(
      parse({"--n", "5", "--t-exec", "-1", "--fault",
             "t=5 crash 9; t=6 lose-next PRIVILEDGE"}));
  EXPECT_NE(error.find("t_exec"), std::string::npos) << error;
  EXPECT_NE(error.find("node 9"), std::string::npos) << error;
  EXPECT_NE(error.find("t=5 crash 9"), std::string::npos) << error;
  EXPECT_NE(error.find("\"PRIVILEDGE\""), std::string::npos) << error;
}

TEST(Cli, JitterNeedsANonConstantDelay) {
  const std::string error = config_error(
      parse({"--jitter", "0.5", "--requests", "300", "--seeds", "1"}));
  EXPECT_NE(error.find("delay_jitter"), std::string::npos) << error;
  EXPECT_NE(error.find("constant"), std::string::npos) << error;
}

TEST(Cli, ReliableTransportKeysFailUpFrontNamingTheKey) {
  const std::pair<const char*, const char*> cases[] = {
      {"rto_initial=nan", "rto_initial"}, {"rto_initial=-1", "rto_initial"},
      {"rto_initial=0", "rto_initial"},   {"ack_delay=-0.5", "ack_delay"},
      {"rto_jitter=-5", "rto_jitter"},    {"rto_max=inf", "rto_max"},
      {"rto_backoff=0.5", "rto_backoff"}, {"max_retries=1e12", "max_retries"},
      {"max_retries=-1", "max_retries"},  {"max_retries=2.5", "max_retries"},
      {"ack_delay=soon", "ack_delay"}};
  for (const auto& [kv, key] : cases) {
    const std::string error = config_error(
        parse({"--transport", "reliable", "--param", kv, "--requests", "100",
               "--seeds", "1"}));
    EXPECT_NE(error.find(key), std::string::npos) << kv << ": " << error;
  }
  // The same keys, in range, run.
  std::ostringstream os;
  EXPECT_EQ(run_cli(parse({"--transport", "reliable", "--param",
                           "rto_initial=0.5", "--param", "max_retries=3",
                           "--param", "rto_backoff=1", "--requests", "100",
                           "--seeds", "1"}),
                    os),
            0);
}

TEST(Cli, RunLockServiceProducesShardTable) {
  CliOptions o;
  o.n_resources = 8;
  o.zipf_s = 0.9;
  o.requests = 800;
  o.n_nodes = 4;
  o.lambdas = {2.0};
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0);
  const std::string out = os.str();
  EXPECT_NE(out.find("grant p99"), std::string::npos);
  EXPECT_NE(out.find("fairness"), std::string::npos);
  EXPECT_NE(out.find("arbiter-tp"), std::string::npos);
  EXPECT_NE(out.find("path-reversal"), std::string::npos);
  EXPECT_EQ(out.find("VIOLATED"), std::string::npos);
}

TEST(Cli, RunCsvMode) {
  CliOptions o;
  o.lambdas = {0.5};
  o.requests = 500;
  o.seeds = 1;
  o.csv = true;
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0);
  EXPECT_NE(os.str().find("lambda,msgs/cs"), std::string::npos);
}

}  // namespace
}  // namespace dmx::harness
