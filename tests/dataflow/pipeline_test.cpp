#include "dataflow/pipeline.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace sieve::dataflow {
namespace {

FlowFile NumberedFile(std::uint64_t n) {
  FlowFile f;
  f.frame = n;
  return f;
}

/// Attach a source before Start(); it starts pumping once the flow does.
void Attach(Pipeline& p, std::string name, SourceFn source) {
  ASSERT_TRUE(p.AttachSource(std::move(name), std::move(source)).ok());
}

/// Start the flow and run it until every attached source is exhausted.
Expected<std::vector<StageStats>> RunToCompletion(Pipeline& p) {
  if (Status s = p.Start(); !s.ok()) return s;
  return p.Finish();
}

TEST(Pipeline, FinishBeforeStartFails) {
  Pipeline p;
  p.SetSink("sink", [](FlowFile) {});
  EXPECT_FALSE(p.Finish().ok());
}

TEST(Pipeline, StartWithoutSinkFails) {
  Pipeline p;
  std::size_t n = 0;
  Attach(p, "src", [&n]() -> std::optional<FlowFile> {
    if (n++ < 3) return FlowFile{};
    return std::nullopt;
  });
  EXPECT_FALSE(p.Start().ok());
}

TEST(Pipeline, SourceToSinkDeliversEverything) {
  Pipeline p;
  std::size_t produced = 0;
  Attach(p, "src", [&produced]() -> std::optional<FlowFile> {
    if (produced < 100) return NumberedFile(produced++);
    return std::nullopt;
  });
  std::atomic<std::size_t> received{0};
  p.SetSink("sink", [&received](FlowFile) { received.fetch_add(1); });
  auto stats = RunToCompletion(p);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(received.load(), 100u);
  EXPECT_EQ(stats->front().out, 100u);
  EXPECT_EQ(stats->back().in, 100u);
}

TEST(Pipeline, StagesTransformInOrder) {
  Pipeline p;
  std::size_t produced = 0;
  Attach(p, "src", [&produced]() -> std::optional<FlowFile> {
    if (produced < 10) return NumberedFile(produced++);
    return std::nullopt;
  });
  p.AddStage("double", [](FlowFile f) -> std::optional<FlowFile> {
    f.frame *= 2;
    return f;
  });
  p.AddStage("plus-one", [](FlowFile f) -> std::optional<FlowFile> {
    f.frame += 1;
    return f;
  });
  std::mutex m;
  std::set<std::uint64_t> values;
  p.SetSink("sink", [&](FlowFile f) {
    std::lock_guard<std::mutex> lock(m);
    values.insert(f.frame);
  });
  ASSERT_TRUE(RunToCompletion(p).ok());
  ASSERT_EQ(values.size(), 10u);
  for (std::uint64_t n = 0; n < 10; ++n) {
    EXPECT_TRUE(values.contains(n * 2 + 1));
  }
}

TEST(Pipeline, FilterStageDropsItems) {
  Pipeline p;
  std::size_t produced = 0;
  Attach(p, "src", [&produced]() -> std::optional<FlowFile> {
    if (produced < 50) return NumberedFile(produced++);
    return std::nullopt;
  });
  p.AddStage("evens-only", [](FlowFile f) -> std::optional<FlowFile> {
    if (f.frame % 2 != 0) return std::nullopt;
    return f;
  });
  std::atomic<std::size_t> received{0};
  p.SetSink("sink", [&received](FlowFile) { received.fetch_add(1); });
  auto stats = RunToCompletion(p);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(received.load(), 25u);
  EXPECT_EQ((*stats)[1].in, 50u);
  EXPECT_EQ((*stats)[1].out, 25u);
}

TEST(Pipeline, ParallelStageProcessesEverythingOnce) {
  Pipeline p(4);
  std::size_t produced = 0;
  Attach(p, "src", [&produced]() -> std::optional<FlowFile> {
    if (produced < 200) return NumberedFile(produced++);
    return std::nullopt;
  });
  p.AddStage(
      "work",
      [](FlowFile f) -> std::optional<FlowFile> { return f; }, 4);
  std::mutex m;
  std::multiset<std::uint64_t> seen;
  p.SetSink("sink", [&](FlowFile f) {
    std::lock_guard<std::mutex> lock(m);
    seen.insert(f.frame);
  });
  ASSERT_TRUE(RunToCompletion(p).ok());
  EXPECT_EQ(seen.size(), 200u);
  for (std::uint64_t n = 0; n < 200; ++n) EXPECT_EQ(seen.count(n), 1u);
}

TEST(Pipeline, BackpressureLimitsQueueDepth) {
  Pipeline p(2);  // tiny connections
  std::size_t produced = 0;
  Attach(p, "fast-src", [&produced]() -> std::optional<FlowFile> {
    if (produced < 100) return NumberedFile(produced++);
    return std::nullopt;
  });
  p.AddStage("slow", [](FlowFile f) -> std::optional<FlowFile> {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return f;
  });
  std::atomic<std::size_t> received{0};
  p.SetSink("sink", [&received](FlowFile) { received.fetch_add(1); });
  auto stats = RunToCompletion(p);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(received.load(), 100u);
  for (const auto& s : *stats) {
    EXPECT_LE(s.peak_queue, 2u) << s.name;
  }
}

TEST(Pipeline, StatsNamesInOrder) {
  Pipeline p;
  std::size_t produced = 0;
  Attach(p, "camera", [&produced]() -> std::optional<FlowFile> {
    if (produced < 1) return NumberedFile(produced++);
    return std::nullopt;
  });
  p.AddStage("edge", [](FlowFile f) -> std::optional<FlowFile> { return f; });
  p.SetSink("cloud", [](FlowFile) {});
  auto stats = RunToCompletion(p);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->size(), 3u);
  EXPECT_EQ((*stats)[0].name, "camera");
  EXPECT_EQ((*stats)[1].name, "edge");
  EXPECT_EQ((*stats)[2].name, "cloud");
}

TEST(Pipeline, EmptySourceCompletesCleanly) {
  Pipeline p;
  Attach(p, "empty", []() -> std::optional<FlowFile> { return std::nullopt; });
  p.SetSink("sink", [](FlowFile) { FAIL() << "nothing should arrive"; });
  auto stats = RunToCompletion(p);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->back().in, 0u);
}

TEST(Pipeline, MultiSourceFanInMergesEverything) {
  Pipeline p(4);
  // Three cameras with distinct id ranges fan into one chain.
  std::array<std::size_t, 3> produced{0, 0, 0};
  for (std::size_t cam = 0; cam < 3; ++cam) {
    Attach(p, "camera-" + std::to_string(cam),
           [cam, &produced]() -> std::optional<FlowFile> {
             if (produced[cam] < 40) {
               return NumberedFile(cam * 1000 + produced[cam]++);
             }
             return std::nullopt;
           });
  }
  p.AddStage("tag", [](FlowFile f) -> std::optional<FlowFile> { return f; });
  std::mutex m;
  std::set<std::uint64_t> seen;
  p.SetSink("sink", [&](FlowFile f) {
    std::lock_guard<std::mutex> lock(m);
    seen.insert(f.frame);
  });
  auto stats = RunToCompletion(p);
  ASSERT_TRUE(stats.ok());
  // Stats: 3 sources, the stage, the sink — in that order.
  ASSERT_EQ(stats->size(), 5u);
  for (std::size_t cam = 0; cam < 3; ++cam) {
    EXPECT_EQ((*stats)[cam].name, "camera-" + std::to_string(cam));
    EXPECT_EQ((*stats)[cam].out, 40u);
  }
  EXPECT_EQ((*stats)[3].in, 120u);
  EXPECT_EQ(stats->back().in, 120u);
  ASSERT_EQ(seen.size(), 120u);
  for (std::size_t cam = 0; cam < 3; ++cam) {
    for (std::uint64_t n = 0; n < 40; ++n) {
      EXPECT_TRUE(seen.contains(cam * 1000 + n));
    }
  }
}

TEST(Pipeline, StreamingAttachWhileRunning) {
  Pipeline p(4);
  std::atomic<std::size_t> received{0};
  p.SetSink("sink", [&received](FlowFile) { received.fetch_add(1); });
  ASSERT_TRUE(p.Start().ok());
  EXPECT_FALSE(p.Start().ok()) << "Start is one-shot";

  // Attach two live sources after the workers are already running.
  for (int cam = 0; cam < 2; ++cam) {
    auto produced = std::make_shared<std::size_t>(0);
    ASSERT_TRUE(p.AttachSource("live-" + std::to_string(cam),
                               [produced]() -> std::optional<FlowFile> {
                                 if (*produced < 30) {
                                   return NumberedFile((*produced)++);
                                 }
                                 return std::nullopt;
                               })
                    .ok());
  }
  auto stats = p.Finish();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(received.load(), 60u);
  ASSERT_EQ(stats->size(), 3u);  // two sources + sink
  EXPECT_FALSE(p.AttachSource("late", [] { return std::nullopt; }).ok());
  EXPECT_FALSE(p.Finish().ok()) << "Finish is one-shot";
}

TEST(Pipeline, OrderedParallelStagePreservesInputOrder) {
  // Workers get adversarial per-item delays (later items finish sooner), so
  // emitting as workers finish would almost surely reorder; the stage's
  // order gate must deliver the exact input sequence anyway.
  constexpr std::size_t kItems = 200;
  Pipeline p(/*queue_capacity=*/8);
  std::size_t produced = 0;
  Attach(p, "src", [&produced]() -> std::optional<FlowFile> {
    if (produced < kItems) return NumberedFile(produced++);
    return std::nullopt;
  });
  p.AddStage(
      "jitter",
      [](FlowFile f) -> std::optional<FlowFile> {
        const std::uint64_t n = f.frame;
        std::this_thread::sleep_for(std::chrono::microseconds((3 - n % 4) * 400));
        return f;
      },
      /*parallelism=*/4);
  std::vector<std::uint64_t> order;
  std::mutex order_mutex;
  p.SetSink("sink", [&](FlowFile f) {
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(f.frame);
  });
  auto stats = RunToCompletion(p);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(order.size(), kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(order[i], i) << "ordered stage emitted out of order";
  }
}

TEST(Pipeline, OrderedStageStillFilters) {
  constexpr std::size_t kItems = 120;
  Pipeline p(/*queue_capacity=*/4);
  std::size_t produced = 0;
  Attach(p, "src", [&produced]() -> std::optional<FlowFile> {
    if (produced < kItems) return NumberedFile(produced++);
    return std::nullopt;
  });
  p.AddStage(
      "drop-odd",
      [](FlowFile f) -> std::optional<FlowFile> {
        const std::uint64_t n = f.frame;
        std::this_thread::sleep_for(std::chrono::microseconds((n % 3) * 300));
        if (n % 2 == 1) return std::nullopt;  // dropped items advance the gate
        return f;
      },
      /*parallelism=*/3);
  std::vector<std::uint64_t> order;
  std::mutex order_mutex;
  p.SetSink("sink", [&](FlowFile f) {
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(f.frame);
  });
  auto stats = RunToCompletion(p);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(order.size(), kItems / 2);
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(order[i], 2 * i);
  }
}

}  // namespace
}  // namespace sieve::dataflow
