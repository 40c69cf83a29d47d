/// Durable serving: a crash-safe update loop. Build an index, checkpoint
/// it to a file, stream inserts/deletes through the write-ahead log --
/// then "crash" (drop the index with NO checkpoint) and reopen: recovery
/// replays the log and every acknowledged write is back, byte-identical.
///
///   $ ./durable_serving [index-path]
///
/// The WAL lives next to the index file. Save(path) is the checkpoint:
/// it atomically replaces the file and resets the log, so the next open
/// replays nothing. The program exits non-zero if the recovered index
/// disagrees with the writes it acknowledged, so CI runs it as a smoke
/// test.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "api/index.h"
#include "common/rng.h"
#include "common/timer.h"
#include "dataset/synthetic.h"

int main(int argc, char** argv) {
  using namespace brep;
  const std::string path =
      argc > 1 ? argv[1] : "/tmp/brep_durable_serving.idx";
  const std::string wal_path = path + ".wal";
  std::remove(path.c_str());
  std::remove(wal_path.c_str());

  Rng rng(42);
  const Matrix data = MakeFontsLike(rng, 3000, 32);
  const size_t base = 2500;
  const Matrix initial(base, data.cols(),
                       std::vector<double>(data.data().begin(),
                                           data.data().begin() +
                                               base * data.cols()));

  DurabilityOptions durability;
  durability.wal_path = wal_path;
  durability.fsync_mode = FsyncMode::kGroup;  // durable within one window
  durability.group_window_ms = 2.0;

  // Track what we acknowledged, to hold recovery to its promise.
  std::map<uint32_t, std::vector<double>> acknowledged;
  std::vector<Neighbor> expected;
  std::vector<double> query(data.cols());

  {
    auto built = IndexBuilder("itakura_saito")
                     .PageSize(32 * 1024)
                     .Durability(durability)
                     .Build(initial);
    if (!built.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    // First checkpoint: gives the log a durable base to replay against
    // (writes are refused until this happened).
    if (const Status s = built->Save(path); !s.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", s.ToString().c_str());
      return 1;
    }
    for (uint32_t id = 0; id < base; ++id) {
      const auto row = initial.Row(id);
      acknowledged[id] = {row.begin(), row.end()};
    }

    // Stream updates: insert the held-out rows, delete a few early ids.
    // Each call returns acknowledged -- logged, and durable within the
    // group window.
    for (size_t i = base; i < data.rows(); ++i) {
      const auto id = built->Insert(data.Row(i));
      if (!id.ok()) {
        std::fprintf(stderr, "insert failed: %s\n",
                     id.status().ToString().c_str());
        return 1;
      }
      const auto row = data.Row(i);
      acknowledged[*id] = {row.begin(), row.end()};
    }
    for (uint32_t id = 0; id < 100; id += 2) {
      if (!built->Delete(id).ok()) return 1;
      acknowledged.erase(id);
    }
    const SearchIndex::Stats us = built->UpdateStats();
    std::printf("acknowledged %llu inserts + %llu deletes "
                "(%llu WAL appends, %llu fsync barriers)\n",
                static_cast<unsigned long long>(us.inserts),
                static_cast<unsigned long long>(us.deletes),
                static_cast<unsigned long long>(us.wal_appends),
                static_cast<unsigned long long>(us.wal_fsyncs));

    const auto q = data.Row(7);
    query.assign(q.begin(), q.end());
    expected = built->Knn(query, 10).value();
  }  // "crash": the index object is gone, NO checkpoint was taken --
     // everything since Save lives only in the write-ahead log

  Timer open_timer;
  auto recovered = Index::Open(path, durability);
  if (!recovered.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered.status().ToString().c_str());
    return 1;
  }
  const WalRecoveryStats& rec = recovered->recovery();
  std::printf("recovered in %.1f ms: replayed %llu inserts + %llu deletes "
              "(%.1f ms replay)\n",
              open_timer.ElapsedMillis(),
              static_cast<unsigned long long>(rec.replayed_inserts),
              static_cast<unsigned long long>(rec.replayed_deletes),
              rec.replay_ms);

  if (recovered->num_points() != acknowledged.size()) {
    std::fprintf(stderr, "FAIL: %zu live points, acknowledged %zu\n",
                 recovered->num_points(), acknowledged.size());
    return 1;
  }
  const auto got = recovered->Knn(query, 10);
  if (!got.ok() || got->size() != expected.size()) return 1;
  for (size_t i = 0; i < expected.size(); ++i) {
    if ((*got)[i].id != expected[i].id ||
        (*got)[i].distance != expected[i].distance) {
      std::fprintf(stderr, "FAIL: rank %zu diverged after recovery\n", i);
      return 1;
    }
  }

  // Checkpoint, reopen: recovery now has nothing to replay.
  if (!recovered->Save(path).ok()) return 1;
  recovered = Status::NotFound("released");  // drop the log writer first
  auto reopened = Index::Open(path, durability);
  if (!reopened.ok() || reopened->recovery().replayed_inserts +
                                reopened->recovery().replayed_deletes !=
                            0) {
    std::fprintf(stderr, "FAIL: replay after a checkpoint\n");
    return 1;
  }
  std::printf("after checkpoint: reopen replays nothing; "
              "%zu points served, top-10 byte-identical\n",
              reopened->num_points());
  std::remove(path.c_str());
  std::remove(wal_path.c_str());
  return 0;
}
