// Access tiers: restricted sections (IDC 'Pro'/'Elite', hidden sections).
#include <gtest/gtest.h>

#include "forum/crawler.hpp"
#include "forum/engine.hpp"
#include "forum/parser.hpp"
#include "synth/dataset.hpp"

namespace tzgeo::forum {
namespace {

[[nodiscard]] synth::Dataset crowd_of(std::size_t users, std::uint64_t seed = 5) {
  synth::DatasetOptions options;
  options.seed = seed;
  options.inactive_fraction = 0.0;
  const synth::RegionSpec spec{"Rome", "Europe/Rome", users};
  return synth::make_region_dataset(spec, users, options);
}

[[nodiscard]] ForumConfig tiered_config() {
  ForumConfig config;
  config.name = "IDC";
  config.pro_thread_fraction = 0.3;
  config.elite_thread_fraction = 0.15;
  return config;
}

constexpr std::int64_t kLate = 4102444800;  // 2100-01-01

struct Rig {
  util::SimClock clock;
  ForumEngine engine;
  tor::OnionTransport transport;
  std::string onion;

  explicit Rig(ForumConfig config, std::size_t users = 40)
      : clock(kLate),
        engine(std::move(config), crowd_of(users)),
        transport(clock, 21) {
    onion = transport.host(9, [this](const tor::Request& request, std::int64_t now) {
      return engine.handle(request, now);
    });
  }
};

TEST(ForumTiers, MixOfTiersAssigned) {
  const ForumEngine engine{tiered_config(), crowd_of(60)};
  std::size_t pro = 0;
  std::size_t elite = 0;
  for (const auto& thread : engine.threads()) {
    pro += thread.tier == AccessTier::kPro ? 1 : 0;
    elite += thread.tier == AccessTier::kElite ? 1 : 0;
  }
  EXPECT_GT(pro, 0u);
  EXPECT_GT(elite, 0u);
  EXPECT_EQ(engine.threads().front().tier, AccessTier::kPublic);  // Welcome
}

TEST(ForumTiers, DefaultConfigIsAllPublic) {
  const ForumEngine engine{ForumConfig{}, crowd_of(40)};
  for (const auto& thread : engine.threads()) {
    EXPECT_EQ(thread.tier, AccessTier::kPublic);
  }
}

TEST(ForumTiers, IndexHidesRestrictedThreadsFromAnonymous) {
  ForumEngine engine{tiered_config(), crowd_of(60)};
  const auto response = engine.handle(tor::Request{"GET", "/index", ""}, kLate);
  const auto parsed = parse_index_page(response.body);
  ASSERT_TRUE(parsed.has_value());
  std::size_t public_threads = 0;
  for (const auto& thread : engine.threads()) {
    public_threads += thread.tier == AccessTier::kPublic ? 1 : 0;
  }
  EXPECT_EQ(parsed->threads.size(), public_threads);
  EXPECT_LT(parsed->threads.size(), engine.threads().size());
}

TEST(ForumTiers, RestrictedThreadIs404ForAnonymous) {
  ForumEngine engine{tiered_config(), crowd_of(60)};
  for (const auto& thread : engine.threads()) {
    const auto response = engine.handle(
        tor::Request{"GET", "/thread/" + std::to_string(thread.id), ""}, kLate);
    if (thread.tier == AccessTier::kPublic) {
      EXPECT_EQ(response.status, 200);
    } else {
      EXPECT_EQ(response.status, 404);  // indistinguishable from missing
    }
  }
}

TEST(ForumTiers, GrantUnlocksInOrder) {
  ForumEngine engine{tiered_config(), crowd_of(60)};
  engine.signup("buyer");
  engine.grant_tier("buyer", AccessTier::kPro);
  engine.signup("vip");
  engine.grant_tier("vip", AccessTier::kElite);

  for (const auto& thread : engine.threads()) {
    const std::string base = "/thread/" + std::to_string(thread.id);
    const auto as_pro = engine.handle(tor::Request{"GET", base + "?as=buyer", ""}, kLate);
    const auto as_elite = engine.handle(tor::Request{"GET", base + "?as=vip", ""}, kLate);
    EXPECT_EQ(as_elite.status, 200);
    EXPECT_EQ(as_pro.status, thread.tier <= AccessTier::kPro ? 200 : 404);
  }
}

TEST(ForumTiers, GrantValidatesHandle) {
  ForumEngine engine{tiered_config(), crowd_of(40)};
  EXPECT_THROW(engine.grant_tier("nobody", AccessTier::kPro), std::out_of_range);
}

TEST(ForumTiers, PostingToRestrictedThreadNeedsTier) {
  ForumEngine engine{tiered_config(), crowd_of(60)};
  engine.signup("pleb");
  engine.signup("vip");
  engine.grant_tier("vip", AccessTier::kElite);
  for (const auto& thread : engine.threads()) {
    if (thread.tier != AccessTier::kElite) continue;
    const std::string body =
        "thread=" + std::to_string(thread.id) + "&author=pleb&text=let me in";
    EXPECT_EQ(engine.handle(tor::Request{"POST", "/post", body}, kLate).status, 404);
    const std::string vip_body =
        "thread=" + std::to_string(thread.id) + "&author=vip&text=elite chat";
    EXPECT_EQ(engine.handle(tor::Request{"POST", "/post", vip_body}, kLate).status, 200);
    return;  // one restricted thread suffices
  }
  FAIL() << "no elite thread generated";
}

TEST(ForumTiers, AnonymousCrawlSeesOnlyPublicPosts) {
  Rig rig{tiered_config(), 60};
  const ScrapeDump dump = crawl_forum(rig.transport, rig.onion);
  EXPECT_EQ(dump.records.size(),
            rig.engine.post_count_visible_to(AccessTier::kPublic));
  EXPECT_LT(dump.records.size(), rig.engine.post_count());
}

TEST(ForumTiers, EliteCrawlSeesEverything) {
  Rig rig{tiered_config(), 60};
  rig.engine.signup("insider");
  rig.engine.grant_tier("insider", AccessTier::kElite);
  CrawlOptions options;
  options.as_handle = "insider";
  const ScrapeDump dump = crawl_forum(rig.transport, rig.onion, options);
  EXPECT_EQ(dump.records.size(), rig.engine.post_count());
}

TEST(ForumTiers, ProCrawlSeesIntermediateAmount) {
  Rig rig{tiered_config(), 60};
  rig.engine.signup("buyer");
  rig.engine.grant_tier("buyer", AccessTier::kPro);
  CrawlOptions options;
  options.as_handle = "buyer";
  const ScrapeDump dump = crawl_forum(rig.transport, rig.onion, options);
  EXPECT_EQ(dump.records.size(), rig.engine.post_count_visible_to(AccessTier::kPro));
  EXPECT_GT(dump.records.size(), rig.engine.post_count_visible_to(AccessTier::kPublic));
  EXPECT_LT(dump.records.size(), rig.engine.post_count());
}

TEST(ForumTiers, TierLabels) {
  EXPECT_STREQ(to_string(AccessTier::kPublic), "public");
  EXPECT_STREQ(to_string(AccessTier::kPro), "pro");
  EXPECT_STREQ(to_string(AccessTier::kElite), "elite");
}

}  // namespace
}  // namespace tzgeo::forum
