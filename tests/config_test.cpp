// Tests for the key=value Config parser and the nvmstat-style report.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/config.hpp"
#include "store/report.hpp"

namespace nvm {
namespace {

TEST(ConfigTest, ParsesArgs) {
  auto c = Config::FromArgs({"workload=mm", "x=8", "ratio=0.25",
                             "remote=true", "cache=2M"});
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->GetString("workload"), "mm");
  EXPECT_EQ(c->GetInt("x"), 8);
  EXPECT_DOUBLE_EQ(c->GetDouble("ratio"), 0.25);
  EXPECT_TRUE(c->GetBool("remote"));
  EXPECT_EQ(c->GetBytes("cache"), 2_MiB);
}

TEST(ConfigTest, Fallbacks) {
  Config c;
  EXPECT_EQ(c.GetString("missing", "d"), "d");
  EXPECT_EQ(c.GetInt("missing", 7), 7);
  EXPECT_EQ(c.GetBytes("missing", 42), 42u);
  EXPECT_FALSE(c.GetBool("missing"));
  EXPECT_TRUE(c.GetBool("missing", true));
}

TEST(ConfigTest, ByteSuffixes) {
  auto c = Config::FromArgs({"a=512", "b=64K", "c=2M", "d=1G", "e=1.5M"});
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->GetBytes("a"), 512u);
  EXPECT_EQ(c->GetBytes("b"), 64_KiB);
  EXPECT_EQ(c->GetBytes("c"), 2_MiB);
  EXPECT_EQ(c->GetBytes("d"), 1_GiB);
  EXPECT_EQ(c->GetBytes("e"), 1536_KiB);
}

TEST(ConfigTest, BoolSpellings) {
  auto c = Config::FromArgs({"a=1", "b=true", "c=yes", "d=on", "e=0",
                             "f=false"});
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->GetBool("a"));
  EXPECT_TRUE(c->GetBool("b"));
  EXPECT_TRUE(c->GetBool("c"));
  EXPECT_TRUE(c->GetBool("d"));
  EXPECT_FALSE(c->GetBool("e"));
  EXPECT_FALSE(c->GetBool("f"));
}

TEST(ConfigTest, RejectsMalformedTokens) {
  EXPECT_FALSE(Config::FromArgs({"novalue"}).ok());
  EXPECT_FALSE(Config::FromArgs({"=value"}).ok());
}

TEST(ConfigTest, UnreadKeysNamesWhatNoGetterRead) {
  auto c = Config::FromArgs({"nodes=4", "cache=2M", "retired=0", "typo=1"});
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->GetInt("nodes"), 4);
  EXPECT_EQ(c->GetBytes("cache"), 2_MiB);
  EXPECT_TRUE(c->Has("typo"));  // presence checks do not count as reads
  EXPECT_EQ(c->GetInt("missing", 3), 3);
  EXPECT_EQ(c->UnreadKeys(), (std::vector<std::string>{"retired", "typo"}));
}

TEST(ConfigTest, ParsesFileWithCommentsAndBlanks) {
  const std::string path = "/tmp/nvm_config_test.cfg";
  {
    std::ofstream out(path);
    out << "# an experiment\n"
        << "workload = sort\n"
        << "\n"
        << "nodes=8   # trailing comment\n";
  }
  auto c = Config::FromFile(path);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->GetString("workload"), "sort");
  EXPECT_EQ(c->GetInt("nodes"), 8);
  std::remove(path.c_str());
  EXPECT_EQ(Config::FromFile("/tmp/does_not_exist.cfg").status().code(),
            ErrorCode::kNotFound);
}

TEST(ReportTest, ReflectsStoreState) {
  net::ClusterConfig cc;
  cc.num_nodes = 3;
  net::Cluster cluster(cc);
  store::AggregateStoreConfig sc;
  sc.store.chunk_bytes = 64_KiB;
  sc.benefactor_nodes = {1, 2};
  sc.contribution_bytes = 1_MiB;
  sc.manager_node = 1;
  store::AggregateStore st(cluster, sc);

  auto& client = st.ClientForNode(0);
  auto& clock = sim::CurrentClock();
  auto id = client.Create(clock, "/reportfile");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client.Fallocate(clock, *id, 4 * 64_KiB).ok());
  st.benefactor(1).Kill();

  const std::string report = store::StatusReport(st);
  EXPECT_NE(report.find("DOWN"), std::string::npos);
  EXPECT_NE(report.find("1/2 benefactors up"), std::string::npos);
  EXPECT_NE(report.find("1 files"), std::string::npos);
  EXPECT_NE(report.find("256.0 KiB used"), std::string::npos);
}

}  // namespace
}  // namespace nvm
