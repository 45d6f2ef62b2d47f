// Malicious proxy tests: action enumeration, field mutation, and each
// delivery/lying action's effect on the wire.
#include <gtest/gtest.h>

#include "common/trace.h"
#include "proxy/enumerate.h"
#include "proxy/proxy.h"

namespace turret::proxy {
namespace {

const wire::Schema& test_schema() {
  static const wire::Schema s = wire::parse_schema(R"(
protocol t;
message Data = 7 {
  u32   seq;
  i32   count;
  bool  flag;
  f64   rate;
  bytes blob;
}
message Tiny = 8 {
  u8 v;
}
)");
  return s;
}

Bytes sample_data() {
  return wire::MessageWriter(7)
      .u32(100)
      .i32(5)
      .b(true)
      .f64(1.5)
      .bytes(Bytes{9})
      .take();
}

// --- Enumeration -----------------------------------------------------------

TEST(Enumerate, CoversDeliveryAndLyingSpace) {
  const auto actions = enumerate_actions(*test_schema().by_tag(7));
  int drops = 0, delays = 0, dups = 0, diverts = 0, lies = 0;
  for (const auto& a : actions) {
    switch (a.kind) {
      case ActionKind::kDrop: ++drops; break;
      case ActionKind::kDelay: ++delays; break;
      case ActionKind::kDuplicate: ++dups; break;
      case ActionKind::kDivert: ++diverts; break;
      case ActionKind::kLie: ++lies; break;
    }
    EXPECT_EQ(a.target_tag, 7u);
    EXPECT_FALSE(a.describe().empty());
  }
  EXPECT_EQ(drops, 2);
  EXPECT_EQ(delays, 2);
  EXPECT_EQ(dups, 2);
  EXPECT_EQ(diverts, 1);
  // u32 + i32: min,max,random,4 spanning,2 add,2 sub,mul = 12 each;
  // bool: flip = 1; f64: min,max,random,add,sub,mul = 6; bytes: none.
  EXPECT_EQ(lies, 12 + 12 + 1 + 6);
}

TEST(Enumerate, BytesFieldsGetNoLyingActions) {
  const auto actions = enumerate_actions(*test_schema().by_tag(7));
  for (const auto& a : actions) {
    if (a.kind == ActionKind::kLie)
      EXPECT_NE(a.field_name, "blob") << a.describe();
  }
}

TEST(Enumerate, SpanningValuesSpanTheType) {
  const auto v8 = spanning_values(wire::FieldType::kU8);
  EXPECT_NE(std::find(v8.begin(), v8.end(), 0), v8.end());
  EXPECT_NE(std::find(v8.begin(), v8.end(), -1), v8.end());
  const auto v64 = spanning_values(wire::FieldType::kI64);
  EXPECT_NE(std::find(v64.begin(), v64.end(), 0x100000000ll), v64.end());
  EXPECT_TRUE(spanning_values(wire::FieldType::kBool).empty());
}

TEST(Enumerate, ClustersPartitionActions) {
  const auto actions = enumerate_actions(*test_schema().by_tag(7));
  for (const auto& a : actions) {
    const ActionCluster c = a.cluster();
    EXPECT_LT(static_cast<std::size_t>(c), kNumClusters);
    if (a.kind == ActionKind::kDuplicate) {
      EXPECT_EQ(c, a.copies >= 10 ? ActionCluster::kDuplicateMany
                                  : ActionCluster::kDuplicateFew);
    }
  }
}

// --- Field mutation ---------------------------------------------------------

TEST(Mutation, IntegerStrategies) {
  Rng rng(1);
  auto decoded = wire::decode(test_schema(), sample_data());
  mutate_field(decoded, 0, LieStrategy::kMax, 0, rng);
  EXPECT_EQ(decoded.values[0].as_unsigned(), 0xffffffffu);
  mutate_field(decoded, 1, LieStrategy::kMin, 0, rng);
  EXPECT_EQ(decoded.values[1].as_signed(), -2147483648ll);
  mutate_field(decoded, 1, LieStrategy::kAdd, 1000, rng);
  EXPECT_EQ(decoded.values[1].as_signed(), -2147483648ll + 1000);
  mutate_field(decoded, 0, LieStrategy::kSpanning, 17, rng);
  EXPECT_EQ(decoded.values[0].as_unsigned(), 17u);
}

TEST(Mutation, SubtractionMakesCountsNegative) {
  // The exact transformation behind the paper's crash findings.
  Rng rng(1);
  auto decoded = wire::decode(test_schema(), sample_data());
  mutate_field(decoded, 1, LieStrategy::kSub, 1000, rng);
  EXPECT_EQ(decoded.values[1].as_signed(), 5 - 1000);
  const Bytes rewire = wire::encode(decoded);
  const auto back = wire::decode(test_schema(), rewire);
  EXPECT_EQ(back.values[1].as_signed(), -995);
}

TEST(Mutation, BoolFlipsAndFloatScales) {
  Rng rng(1);
  auto decoded = wire::decode(test_schema(), sample_data());
  mutate_field(decoded, 2, LieStrategy::kFlip, 0, rng);
  EXPECT_FALSE(decoded.values[2].as_bool());
  mutate_field(decoded, 3, LieStrategy::kMul, 2, rng);
  EXPECT_DOUBLE_EQ(decoded.values[3].as_double(), 3.0);
  mutate_field(decoded, 3, LieStrategy::kMax, 0, rng);
  EXPECT_GT(decoded.values[3].as_double(), 1e308);
}

TEST(Mutation, RandomIsDeterministicPerSeed) {
  Rng r1(42), r2(42);
  auto d1 = wire::decode(test_schema(), sample_data());
  auto d2 = wire::decode(test_schema(), sample_data());
  mutate_field(d1, 0, LieStrategy::kRandom, 0, r1);
  mutate_field(d2, 0, LieStrategy::kRandom, 0, r2);
  EXPECT_EQ(d1.values[0], d2.values[0]);
}

// --- Proxy actions on the wire ----------------------------------------------

MaliciousAction base_action(ActionKind kind) {
  MaliciousAction a;
  a.target_tag = 7;
  a.message_name = "Data";
  a.kind = kind;
  return a;
}

TEST(Proxy, PassesBenignSendersUntouched) {
  MaliciousProxy proxy(test_schema(), {0}, 4);
  auto a = base_action(ActionKind::kDrop);
  a.drop_probability = 1.0;
  proxy.arm(a);
  const auto out = proxy.on_send(0, 2, 1, sample_data());  // sender 2 is benign
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].message.to_bytes(), sample_data());
  EXPECT_EQ(proxy.stats().observed, 0u);
}

TEST(Proxy, InterceptsExactlyTheMaliciousSenders) {
  const MaliciousProxy proxy(test_schema(), {0, 2}, 4);
  EXPECT_TRUE(proxy.intercepts(0));
  EXPECT_FALSE(proxy.intercepts(1));
  EXPECT_TRUE(proxy.intercepts(2));
  EXPECT_FALSE(proxy.intercepts(3));
}

TEST(Proxy, HonestSendIsAnUntouchedSharedBufferPassThrough) {
  // The emulator skips on_send for senders intercepts() rejects, which is
  // sound only if on_send would pass their messages through with no trace:
  // one undelayed delivery sharing the sender's buffer, no counters, no
  // audit record, no observer call.
  trace::ScopedTrace tracing;
  MaliciousProxy proxy(test_schema(), {0}, 4);
  proxy.enable_audit(16);
  bool observer_called = false;
  proxy.set_observer([&](NodeId, NodeId, wire::TypeTag) {
    observer_called = true;
    return true;
  });
  auto a = base_action(ActionKind::kDrop);
  a.drop_probability = 1.0;
  proxy.arm(a);
  const std::uint64_t observed_before = trace::counters().snapshot().proxy_observed;

  ASSERT_FALSE(proxy.intercepts(2));
  const MessageBuf message(sample_data());
  const auto out = proxy.on_send(kSecond, 2, 1, message);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dst, 1u);
  EXPECT_EQ(out[0].delay, 0);
  EXPECT_FALSE(out[0].reintercept);
  EXPECT_TRUE(out[0].message.same_buffer(message));
  EXPECT_EQ(out[0].message.offset(), message.offset());
  EXPECT_EQ(out[0].message.size(), message.size());
  EXPECT_FALSE(observer_called);
  EXPECT_EQ(proxy.stats().observed, 0u);
  EXPECT_EQ(proxy.stats().injected, 0u);
  EXPECT_EQ(proxy.stats().undecodable, 0u);
  EXPECT_TRUE(proxy.audit()->records().empty());
  EXPECT_EQ(trace::counters().snapshot().proxy_observed, observed_before);
}

TEST(Proxy, DropDiscardsEverything) {
  MaliciousProxy proxy(test_schema(), {0}, 4);
  auto a = base_action(ActionKind::kDrop);
  a.drop_probability = 1.0;
  proxy.arm(a);
  EXPECT_TRUE(proxy.on_send(0, 0, 1, sample_data()).empty());
  EXPECT_EQ(proxy.stats().injected, 1u);
}

TEST(Proxy, Drop50HitsRoughlyHalf) {
  MaliciousProxy proxy(test_schema(), {0}, 4);
  auto a = base_action(ActionKind::kDrop);
  a.drop_probability = 0.5;
  proxy.arm(a);
  int dropped = 0;
  for (int i = 0; i < 1000; ++i) {
    if (proxy.on_send(0, 0, 1, sample_data()).empty()) ++dropped;
  }
  EXPECT_GT(dropped, 400);
  EXPECT_LT(dropped, 600);
}

TEST(Proxy, DelayHoldsMessage) {
  MaliciousProxy proxy(test_schema(), {0}, 4);
  auto a = base_action(ActionKind::kDelay);
  a.delay = kSecond;
  proxy.arm(a);
  const auto out = proxy.on_send(0, 0, 1, sample_data());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].delay, kSecond);
  EXPECT_EQ(out[0].message.to_bytes(), sample_data());
}

TEST(Proxy, DuplicateEmitsNPlusOneCopies) {
  MaliciousProxy proxy(test_schema(), {0}, 4);
  auto a = base_action(ActionKind::kDuplicate);
  a.copies = 50;
  proxy.arm(a);
  const auto out = proxy.on_send(0, 0, 1, sample_data());
  ASSERT_EQ(out.size(), 51u);
  for (const auto& d : out) {
    EXPECT_EQ(d.dst, 1u);
    EXPECT_EQ(d.message.to_bytes(), sample_data());
    EXPECT_EQ(d.delay, 0);
  }
}

TEST(Proxy, DivertTargetsAnotherNode) {
  MaliciousProxy proxy(test_schema(), {0}, 4);
  proxy.arm(base_action(ActionKind::kDivert));
  for (int i = 0; i < 50; ++i) {
    const auto out = proxy.on_send(0, 0, 1, sample_data());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NE(out[0].dst, 1u);
    EXPECT_LT(out[0].dst, 4u);
  }
}

TEST(Proxy, LieRewritesOnlyTargetField) {
  MaliciousProxy proxy(test_schema(), {0}, 4);
  auto a = base_action(ActionKind::kLie);
  a.field_index = 1;
  a.field_name = "count";
  a.strategy = LieStrategy::kMin;
  proxy.arm(a);
  const auto out = proxy.on_send(0, 0, 1, sample_data());
  ASSERT_EQ(out.size(), 1u);
  const auto decoded = wire::decode(test_schema(), out[0].message);
  EXPECT_EQ(decoded.values[1].as_signed(), -2147483648ll);
  EXPECT_EQ(decoded.values[0].as_unsigned(), 100u);  // untouched
  EXPECT_EQ(decoded.values[4].as_bytes(), Bytes{9});
}

TEST(Proxy, ActionOnlyAppliesToMatchingType) {
  MaliciousProxy proxy(test_schema(), {0}, 4);
  auto a = base_action(ActionKind::kDrop);
  a.drop_probability = 1.0;
  proxy.arm(a);
  const Bytes tiny = wire::MessageWriter(8).u8(3).take();
  const auto out = proxy.on_send(0, 0, 1, tiny);
  ASSERT_EQ(out.size(), 1u);  // Tiny passes; only Data is targeted
  EXPECT_EQ(proxy.stats().observed, 1u);
  EXPECT_EQ(proxy.stats().injected, 0u);
}

TEST(Proxy, ObserverSeesMaliciousTraffic) {
  MaliciousProxy proxy(test_schema(), {0, 2}, 4);
  std::vector<wire::TypeTag> seen;
  proxy.set_observer([&](NodeId, NodeId, wire::TypeTag tag) {
    seen.push_back(tag);
    return false;
  });
  proxy.on_send(0, 0, 1, sample_data());
  proxy.on_send(0, 1, 2, sample_data());  // benign sender: not observed
  proxy.on_send(0, 2, 3, wire::MessageWriter(8).u8(1).take());
  EXPECT_EQ(seen, (std::vector<wire::TypeTag>{7, 8}));
}

TEST(Proxy, ObserverHoldRequestsReinterception) {
  MaliciousProxy proxy(test_schema(), {0}, 4);
  proxy.set_observer([](NodeId, NodeId, wire::TypeTag) { return true; });
  const auto out = proxy.on_send(0, 0, 1, sample_data());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_GT(out[0].delay, 0);
  EXPECT_TRUE(out[0].reintercept);
  EXPECT_EQ(out[0].message.to_bytes(), sample_data());
}

TEST(Proxy, ArmIsDeterministicPerAction) {
  auto a = base_action(ActionKind::kDrop);
  a.drop_probability = 0.5;
  MaliciousProxy p1(test_schema(), {0}, 4), p2(test_schema(), {0}, 4);
  p1.arm(a);
  p2.arm(a);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(p1.on_send(0, 0, 1, sample_data()).size(),
              p2.on_send(0, 0, 1, sample_data()).size());
  }
}

TEST(Proxy, DisarmRestoresPassThrough) {
  MaliciousProxy proxy(test_schema(), {0}, 4);
  auto a = base_action(ActionKind::kDrop);
  a.drop_probability = 1.0;
  proxy.arm(a);
  EXPECT_TRUE(proxy.on_send(0, 0, 1, sample_data()).empty());
  proxy.disarm();
  EXPECT_EQ(proxy.on_send(0, 0, 1, sample_data()).size(), 1u);
}

}  // namespace
}  // namespace turret::proxy
