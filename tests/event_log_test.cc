// Unit tests for the bounded lock-free event ring: append/snapshot round
// trips, wrap-around semantics, payload truncation, and torn-read
// protection under concurrent writers and readers.

#include "src/obs/event_log.h"

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace swope {
namespace {

TEST(EventLogTest, KindNamesAreStable) {
  EXPECT_STREQ(EventKindName(EventKind::kQueryAdmit), "query-admit");
  EXPECT_STREQ(EventKindName(EventKind::kQueryReject), "query-reject");
  EXPECT_STREQ(EventKindName(EventKind::kQueryComplete), "query-complete");
  EXPECT_STREQ(EventKindName(EventKind::kQueryCancelled),
               "query-cancelled");
  EXPECT_STREQ(EventKindName(EventKind::kQueryDeadline), "query-deadline");
  EXPECT_STREQ(EventKindName(EventKind::kSlowQuery), "slow-query");
  EXPECT_STREQ(EventKindName(EventKind::kIngest), "ingest");
  EXPECT_STREQ(EventKindName(EventKind::kDatasetLoad), "dataset-load");
  EXPECT_STREQ(EventKindName(EventKind::kDatasetEvict), "dataset-evict");
}

TEST(EventLogTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(EventLog(0).capacity(), 8u);
  EXPECT_EQ(EventLog(5).capacity(), 8u);
  EXPECT_EQ(EventLog(8).capacity(), 8u);
  EXPECT_EQ(EventLog(9).capacity(), 16u);
  EXPECT_EQ(EventLog().capacity(), EventLog::kDefaultCapacity);
}

TEST(EventLogTest, AppendSnapshotRoundTrip) {
  EventLog log(16);
  log.Append(EventKind::kDatasetLoad, "cdc", "rows=100");
  log.Append(EventKind::kQueryComplete, "cdc", "entropy-topk rounds=3",
             1.25);
  EXPECT_EQ(log.TotalAppended(), 2u);

  const std::vector<EventLog::Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].sequence, 0u);
  EXPECT_EQ(events[0].kind, EventKind::kDatasetLoad);
  EXPECT_EQ(events[0].dataset, "cdc");
  EXPECT_EQ(events[0].detail, "rows=100");
  EXPECT_DOUBLE_EQ(events[0].wall_ms, 0.0);
  EXPECT_EQ(events[1].sequence, 1u);
  EXPECT_EQ(events[1].kind, EventKind::kQueryComplete);
  EXPECT_DOUBLE_EQ(events[1].wall_ms, 1.25);
}

TEST(EventLogTest, TruncatesOversizedPayloads) {
  EventLog log(8);
  const std::string long_dataset(1000, 'd');
  const std::string long_detail(5000, 'x');
  log.Append(EventKind::kIngest, long_dataset, long_detail);
  const std::vector<EventLog::Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].dataset,
            std::string(EventLog::kDatasetBytes - 1, 'd'));
  EXPECT_EQ(events[0].detail, std::string(EventLog::kDetailBytes - 1, 'x'));
}

TEST(EventLogTest, WrapKeepsTheMostRecentEvents) {
  EventLog log(8);
  for (int i = 0; i < 20; ++i) {
    log.Append(EventKind::kIngest, "ds", "n=" + std::to_string(i));
  }
  EXPECT_EQ(log.TotalAppended(), 20u);
  const std::vector<EventLog::Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].sequence, 12 + i);
    EXPECT_EQ(events[i].detail, "n=" + std::to_string(12 + i));
  }
}

TEST(EventLogTest, SnapshotHonorsMaxEvents) {
  EventLog log(16);
  for (int i = 0; i < 10; ++i) {
    log.Append(EventKind::kIngest, "ds", std::to_string(i));
  }
  const std::vector<EventLog::Event> events = log.Snapshot(3);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].sequence, 7u);
  EXPECT_EQ(events[2].sequence, 9u);
}

TEST(EventLogTest, ConcurrentAppendsAreCountedAndSequenced) {
  EventLog log(64);
  constexpr int kThreads = 8;
  constexpr int kAppends = 5000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&log, t] {
      const std::string dataset = "d" + std::to_string(t);
      for (int i = 0; i < kAppends; ++i) {
        log.Append(EventKind::kQueryComplete, dataset, "x");
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(log.TotalAppended(),
            static_cast<uint64_t>(kThreads) * kAppends);

  // After quiescence the ring holds the last `capacity` tickets exactly.
  const std::vector<EventLog::Event> events = log.Snapshot();
  EXPECT_EQ(events.size(), log.capacity());
  std::set<uint64_t> sequences;
  for (const EventLog::Event& event : events) {
    EXPECT_GE(event.sequence,
              static_cast<uint64_t>(kThreads) * kAppends - log.capacity());
    sequences.insert(event.sequence);
  }
  EXPECT_EQ(sequences.size(), events.size());
}

TEST(EventLogTest, SnapshotsNeverObserveTornPayloads) {
  // Writers stamp every byte of the payload with a per-thread character;
  // a torn read (half of one write, half of another) would surface as a
  // mixed payload. Readers snapshot concurrently and validate.
  EventLog log(16);
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&log, &stop, t] {
      const std::string payload(100, static_cast<char>('a' + t));
      while (!stop.load(std::memory_order_relaxed)) {
        log.Append(EventKind::kIngest, payload.substr(0, 20), payload,
                   static_cast<double>(t));
      }
    });
  }
  std::atomic<int> validated{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&log, &stop, &validated] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (const EventLog::Event& event : log.Snapshot()) {
          ASSERT_FALSE(event.detail.empty());
          const char stamp = event.detail[0];
          ASSERT_GE(stamp, 'a');
          ASSERT_LT(stamp, 'a' + kWriters);
          ASSERT_EQ(event.detail,
                    std::string(100, stamp));
          ASSERT_EQ(event.dataset, std::string(20, stamp));
          ASSERT_DOUBLE_EQ(event.wall_ms,
                           static_cast<double>(stamp - 'a'));
          validated.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Run until the readers have validated a healthy number of events.
  while (validated.load(std::memory_order_relaxed) < 20000) {
  }
  stop.store(true);
  for (std::thread& writer : writers) writer.join();
  for (std::thread& reader : readers) reader.join();
}

}  // namespace
}  // namespace swope
