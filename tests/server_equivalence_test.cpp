// Differential proof that the multi-tenant server is an oracle-faithful
// front end over sql::Session (DESIGN.md §16): N concurrent clients
// replay a seeded workload and every result digest / error status is
// diffed bitwise against a single-threaded local session over the same
// catalog — including the shared-scan batched path (forced by holding
// the lone worker while overlapping viewport queries pile up) and live
// appends racing readers (per-statement epoch pinning).
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/live_table.h"
#include "core/table_appender.h"
#include "gis/catalog.h"
#include "pointcloud/generator.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/executor.h"
#include "sql/session.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace geocol {
namespace {

constexpr double kMinX = 85000, kMinY = 444000, kMaxX = 85060,
                 kMaxY = 444060;

/// Seeded statement mix: viewport aggregates, projections with ORDER BY /
/// LIMIT, thematic filters, and a periodic planner error (the server must
/// refuse it with the oracle's exact Status).
std::vector<std::string> WorkloadStatements(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> fx(kMinX, kMaxX);
  std::uniform_real_distribution<double> fy(kMinY, kMaxY);
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double x0 = fx(rng), x1 = fx(rng), y0 = fy(rng), y1 = fy(rng);
    if (x0 > x1) std::swap(x0, x1);
    if (y0 > y1) std::swap(y0, y1);
    char where[256];
    std::snprintf(where, sizeof(where),
                  "x BETWEEN %.17g AND %.17g AND y BETWEEN %.17g AND %.17g",
                  x0, x1, y0, y1);
    switch (i % 6) {
      case 0:
        out.push_back(std::string("SELECT COUNT(*) FROM ahn2 WHERE ") +
                      where);
        break;
      case 1:
        out.push_back(std::string("SELECT AVG(z), MIN(z), MAX(z) FROM ahn2"
                                  " WHERE ") +
                      where);
        break;
      case 2:
        out.push_back(std::string("SELECT x, y, z FROM ahn2 WHERE ") +
                      where + " ORDER BY z DESC LIMIT 16");
        break;
      case 3:
        out.push_back(std::string("SELECT COUNT(*) FROM ahn2 WHERE ") +
                      where + " AND z >= 5");
        break;
      case 4:
        out.push_back(std::string("SELECT SUM(intensity) FROM ahn2 WHERE ") +
                      where);
        break;
      default:
        out.push_back(std::string("SELECT no_such_col FROM ahn2 WHERE ") +
                      where);
        break;
    }
  }
  return out;
}

/// One client-side observation, comparable against the oracle.
struct Observed {
  std::string sql;
  bool ok = false;
  uint32_t digest = 0;    ///< when ok
  std::string error;      ///< Status::ToString() when !ok
};

void DiffAgainstOracle(const std::vector<Observed>& observed,
                       Catalog* catalog) {
  sql::Session oracle(catalog);
  for (const auto& o : observed) {
    auto local = oracle.Execute(o.sql);
    ASSERT_EQ(o.ok, local.ok()) << o.sql << " server/oracle ok mismatch";
    if (o.ok) {
      EXPECT_EQ(o.digest, sql::ResultSetDigest(*local)) << o.sql;
    } else {
      EXPECT_EQ(o.error, local.status().ToString()) << o.sql;
    }
  }
}

TEST(ServerEquivalenceTest, ConcurrentClientsMatchOracle) {
  AhnGeneratorOptions gopts;
  gopts.extent = Box(kMinX, kMinY, kMaxX, kMaxY);
  AhnGenerator gen(gopts);
  auto table = gen.GenerateTable(8000);
  ASSERT_TRUE(table.ok());
  Catalog catalog;
  ASSERT_TRUE(catalog.AddPointCloud("ahn2", *table).ok());

  server::ServerOptions sopts;
  sopts.workers = 3;
  server::Server srv(&catalog, sopts);
  ASSERT_TRUE(srv.Start().ok());
  const int port = srv.port();

  constexpr int kClients = 6, kQueriesPerClient = 30;
  std::vector<std::vector<Observed>> per_client(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto statements = WorkloadStatements(kQueriesPerClient, 9100 + c);
      server::Client::Options copts;
      copts.port = port;
      copts.client_id = "client-" + std::to_string(c);
      auto client = server::Client::Connect(copts);
      ASSERT_TRUE(client.ok());
      for (const auto& sql : statements) {
        auto outcome = client->Query(sql);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        Observed o;
        o.sql = sql;
        o.ok = outcome->ok;
        if (outcome->ok) {
          o.digest = sql::ResultSetDigest(outcome->result);
        } else {
          o.error = outcome->error.ToStatus().ToString();
        }
        per_client[c].push_back(std::move(o));
      }
    });
  }
  for (auto& t : threads) t.join();
  srv.Stop();

  for (const auto& observed : per_client) {
    ASSERT_EQ(observed.size(), static_cast<size_t>(kQueriesPerClient));
    DiffAgainstOracle(observed, &catalog);
  }
  server::ServerStats s = srv.stats();
  EXPECT_EQ(s.queries_ok + s.queries_error,
            static_cast<uint64_t>(kClients * kQueriesPerClient));
}

/// Runs `statements` against `table` on a one-worker server over
/// `catalog`, with the worker briefly plugged: while it holds a plug query
/// in the test hook, the statements pile up in the queue, so with batching
/// on its next pop extracts them as shared-scan batch groups. Every
/// statement must plan cleanly — refused statements are never admitted, so
/// they cannot join the queue this fills. `stats` gets the server's
/// counters.
std::vector<Observed> RunPluggedBatch(
    Catalog* catalog, const std::string& table,
    const std::vector<std::string>& statements, bool batching,
    server::ServerStats* stats) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> held{0};
  server::ServerOptions sopts;
  sopts.workers = 1;
  sopts.shared_scan_batching = batching;
  sopts.before_execute_hook = [&](const server::QueryTask&) {
    if (held.fetch_add(1) == 0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
  };
  server::Server srv(catalog, sopts);
  EXPECT_TRUE(srv.Start().ok());
  const int port = srv.port();

  std::thread plug([&] {
    server::Client::Options copts;
    copts.port = port;
    auto client = server::Client::Connect(copts);
    ASSERT_TRUE(client.ok());
    auto rs = client->Query("SELECT COUNT(*) FROM " + table);
    ASSERT_TRUE(rs.ok());
    EXPECT_TRUE(rs->ok);
  });
  while (held.load() == 0) std::this_thread::yield();

  std::vector<Observed> observed(statements.size());
  std::vector<std::thread> clients;
  for (size_t i = 0; i < statements.size(); ++i) {
    clients.emplace_back([&, i] {
      server::Client::Options copts;
      copts.port = port;
      auto client = server::Client::Connect(copts);
      ASSERT_TRUE(client.ok());
      auto outcome = client->Query(statements[i]);
      ASSERT_TRUE(outcome.ok());
      observed[i].sql = statements[i];
      observed[i].ok = outcome->ok;
      if (outcome->ok) {
        observed[i].digest = sql::ResultSetDigest(outcome->result);
      } else {
        observed[i].error = outcome->error.ToStatus().ToString();
      }
    });
  }
  // Every statement must be admitted before the worker wakes.
  while (srv.stats().queue_depth < statements.size()) {
    std::this_thread::yield();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  plug.join();
  for (auto& t : clients) t.join();
  srv.Stop();
  *stats = srv.stats();
  return observed;
}

/// Overlapping viewports around the extent centre, varied shapes so the
/// fan-out covers aggregates, thematic filters, ORDER BY rendering and a
/// predicate-free member.
const std::vector<std::string>& BatchStatements() {
  static const std::vector<std::string> statements = {
      "SELECT COUNT(*) FROM ahn2 WHERE x BETWEEN 85010 AND 85050"
      " AND y BETWEEN 444010 AND 444050",
      "SELECT AVG(z), MIN(z), MAX(z) FROM ahn2 WHERE x BETWEEN 85005 AND"
      " 85045 AND y BETWEEN 444005 AND 444045",
      "SELECT x, y, z FROM ahn2 WHERE x BETWEEN 85020 AND 85055"
      " AND y BETWEEN 444020 AND 444055 ORDER BY z DESC LIMIT 16",
      "SELECT COUNT(*) FROM ahn2 WHERE x BETWEEN 85000 AND 85030"
      " AND y BETWEEN 444000 AND 444030 AND z >= 5",
      "SELECT SUM(intensity) FROM ahn2 WHERE x BETWEEN 85015 AND 85035"
      " AND y BETWEEN 444015 AND 444060",
      "SELECT COUNT(*), AVG(z) FROM ahn2 WHERE x BETWEEN 85001 AND 85059"
      " AND y BETWEEN 444001 AND 444059",
      "SELECT classification, z FROM ahn2 WHERE x BETWEEN 85025 AND 85045"
      " AND y BETWEEN 444025 AND 444045 LIMIT 32",
      "SELECT COUNT(*) FROM ahn2",
  };
  return statements;
}

TEST(ServerEquivalenceTest, SharedScanBatchedPathBitIdentical) {
  AhnGeneratorOptions gopts;
  gopts.extent = Box(kMinX, kMinY, kMaxX, kMaxY);
  AhnGenerator gen(gopts);
  auto table = gen.GenerateTable(8000);
  ASSERT_TRUE(table.ok());
  Catalog catalog;
  ASSERT_TRUE(catalog.AddPointCloud("ahn2", *table).ok());

  server::ServerStats s;
  std::vector<Observed> observed =
      RunPluggedBatch(&catalog, "ahn2", BatchStatements(), true, &s);
  EXPECT_GE(s.batches, 1u);
  EXPECT_GE(s.batch_members, 2u);
  EXPECT_EQ(s.batch_fallbacks, 0u);
  DiffAgainstOracle(observed, &catalog);
}

// Batching runs on the pinned view, so a sharded table — resident or
// paged — batches too, with digests identical to unbatched execution.
TEST(ServerEquivalenceTest, SharedScanOverShardedTableMatchesUnbatched) {
  AhnGeneratorOptions gopts;
  gopts.extent = Box(kMinX, kMinY, kMaxX, kMaxY);
  AhnGenerator gen(gopts);
  auto table = gen.GenerateTable(8000);
  ASSERT_TRUE(table.ok());
  ShardingOptions so;
  so.num_shards = 6;
  auto sharded = ShardedTable::Create(**table, so);
  ASSERT_TRUE(sharded.ok());
  TempDir tmp("server_equiv");
  ASSERT_TRUE(WriteShardedTableDir(**sharded, tmp.File("sharded")).ok());

  for (const bool paged : {false, true}) {
    SCOPED_TRACE(paged ? "paged" : "resident");
    std::shared_ptr<ShardedTable> layout = *sharded;
    if (paged) {
      auto loaded = ReadShardedTableDir(tmp.File("sharded"),
                                        /*verify_checksums=*/true,
                                        /*paged=*/true);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      layout = *loaded;
    }
    Catalog catalog;
    ASSERT_TRUE(catalog.AddShardedPointCloud("ahn2", layout).ok());
    server::ServerStats on, off;
    std::vector<Observed> batched =
        RunPluggedBatch(&catalog, "ahn2", BatchStatements(), true, &on);
    std::vector<Observed> solo =
        RunPluggedBatch(&catalog, "ahn2", BatchStatements(), false, &off);
    EXPECT_GE(on.batches, 1u);
    EXPECT_EQ(on.batch_fallbacks, 0u);
    EXPECT_EQ(off.batches, 0u);
    ASSERT_EQ(batched.size(), solo.size());
    for (size_t i = 0; i < batched.size(); ++i) {
      EXPECT_TRUE(batched[i].ok) << batched[i].sql << ": " << batched[i].error;
      EXPECT_EQ(batched[i].digest, solo[i].digest) << batched[i].sql;
    }
    DiffAgainstOracle(batched, &catalog);
  }
}

// A sharded table indexed on columns other than x/y: the planner folds its
// own coordinate ranges into the query window, and batching keys its
// viewport and re-filter on those columns too.
TEST(ServerEquivalenceTest, ShardedLonLatColumnsFoldAndBatch) {
  Rng rng(77);
  const size_t n = 6000;
  std::vector<double> lon(n), lat(n), z(n);
  std::vector<uint8_t> cls(n);
  for (size_t i = 0; i < n; ++i) {
    lon[i] = rng.UniformDouble(4.0, 5.0);
    lat[i] = rng.UniformDouble(52.0, 53.0);
    z[i] = rng.UniformDouble(-5, 40);
    cls[i] = static_cast<uint8_t>(rng.Uniform(10));
  }
  FlatTable source("pts");
  ASSERT_TRUE(source.AddColumn(Column::FromVector("lon", lon)).ok());
  ASSERT_TRUE(source.AddColumn(Column::FromVector("lat", lat)).ok());
  ASSERT_TRUE(source.AddColumn(Column::FromVector("z", z)).ok());
  ASSERT_TRUE(
      source.AddColumn(Column::FromVector("classification", cls)).ok());
  ShardingOptions so;
  so.num_shards = 4;
  so.x_column = "lon";
  so.y_column = "lat";
  auto sharded = ShardedTable::Create(source, so);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  Catalog catalog;
  ASSERT_TRUE(catalog.AddShardedPointCloud("pts", *sharded).ok());

  sql::Session session(&catalog);
  auto ex = session.Execute(
      "EXPLAIN SELECT COUNT(*) FROM pts WHERE lon BETWEEN 4.25 AND 4.5 AND "
      "lat BETWEEN 52.25 AND 52.5");
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  std::string plan;
  for (const auto& row : ex->rows) plan += row[0].text + "\n";
  EXPECT_NE(plan.find("  step 1: conjunctive imprint filter on lon, lat over "
                      "window [4.250000, 4.500000] x [52.250000, 52.500000] "
                      "(x/y ranges folded)\n"),
            std::string::npos)
      << plan;
  EXPECT_EQ(plan.find("thematic"), std::string::npos) << plan;

  const std::vector<std::string> statements = {
      "SELECT COUNT(*) FROM pts WHERE lon BETWEEN 4.2 AND 4.6 AND lat "
      "BETWEEN 52.2 AND 52.6",
      "SELECT AVG(z), MAX(z) FROM pts WHERE lon BETWEEN 4.3 AND 4.7 AND lat "
      "BETWEEN 52.3 AND 52.8",
      "SELECT lon, lat, z FROM pts WHERE lon BETWEEN 4.25 AND 4.55 AND lat "
      "BETWEEN 52.1 AND 52.5 AND classification BETWEEN 2 AND 5 ORDER BY z "
      "LIMIT 20",
      "SELECT COUNT(*) FROM pts WHERE ST_Within(pt, 'BOX(4.1 52.4, 4.5 "
      "52.9)') AND z >= 10",
  };
  server::ServerStats s;
  std::vector<Observed> observed =
      RunPluggedBatch(&catalog, "pts", statements, true, &s);
  EXPECT_GE(s.batches, 1u);
  EXPECT_GE(s.batch_members, statements.size());
  EXPECT_EQ(s.batch_fallbacks, 0u);
  for (const Observed& o : observed) EXPECT_TRUE(o.ok) << o.sql << o.error;
  DiffAgainstOracle(observed, &catalog);
}

TEST(ServerEquivalenceTest, LiveAppendsRaceReadersWithEpochPinning) {
  // Readers hammer COUNT(*) while an appender commits epochs; because
  // statements pin their epoch at admission, every observed count must be
  // an exact epoch size (initial + k * batch), never a torn value, and
  // counts are non-decreasing per client (one statement in flight at a
  // time per connection).
  const Box extent(0, 0, 100, 100);
  constexpr size_t kInitial = 1000, kBatch = 500;
  constexpr int kCommits = 10;
  Rng rng(77);
  auto make_points = [&](size_t n) {
    std::vector<double> xs(n), ys(n), zs(n);
    for (size_t i = 0; i < n; ++i) {
      xs[i] = rng.UniformDouble(extent.min_x, extent.max_x);
      ys[i] = rng.UniformDouble(extent.min_y, extent.max_y);
      zs[i] = rng.UniformDouble(-5, 40);
    }
    auto t = std::make_shared<FlatTable>("live");
    EXPECT_TRUE(t->AddColumn(Column::FromVector("x", xs)).ok());
    EXPECT_TRUE(t->AddColumn(Column::FromVector("y", ys)).ok());
    EXPECT_TRUE(t->AddColumn(Column::FromVector("z", zs)).ok());
    return t;
  };
  auto live = LiveTable::Create(make_points(kInitial));
  ASSERT_TRUE(live.ok());
  Catalog catalog;
  ASSERT_TRUE(catalog.AddLivePointCloud("live", *live).ok());

  server::ServerOptions sopts;
  sopts.workers = 2;
  server::Server srv(&catalog, sopts);
  ASSERT_TRUE(srv.Start().ok());
  const int port = srv.port();

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    TableAppender app(*live);
    for (int c = 0; c < kCommits; ++c) {
      ASSERT_TRUE(app.StageBatch(*make_points(kBatch)).ok());
      ASSERT_TRUE(app.Commit().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    writer_done.store(true);
  });

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      server::Client::Options copts;
      copts.port = port;
      auto client = server::Client::Connect(copts);
      ASSERT_TRUE(client.ok());
      double last = 0;
      while (!writer_done.load()) {
        auto rs = client->Query("SELECT COUNT(*) FROM live");
        ASSERT_TRUE(rs.ok());
        ASSERT_TRUE(rs->ok) << rs->error.message;
        double count = rs->result.rows[0][0].number;
        // Exactly an epoch size, never torn.
        double over = count - static_cast<double>(kInitial);
        EXPECT_GE(over, 0);
        EXPECT_EQ(std::fmod(over, static_cast<double>(kBatch)), 0.0)
            << count;
        EXPECT_GE(count, last);
        last = count;
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  // After the last commit every new statement sees the final epoch.
  {
    server::Client::Options copts;
    copts.port = port;
    auto client = server::Client::Connect(copts);
    ASSERT_TRUE(client.ok());
    auto rs = client->Query("SELECT COUNT(*) FROM live");
    ASSERT_TRUE(rs.ok());
    ASSERT_TRUE(rs->ok);
    EXPECT_EQ(rs->result.rows[0][0].number,
              static_cast<double>(kInitial + kCommits * kBatch));
  }
  srv.Stop();
}

}  // namespace
}  // namespace geocol
