// Server lifecycle and protocol robustness (DESIGN.md §16): start/stop
// idempotence and restart, graceful drain of in-flight queries on
// shutdown, malformed/truncated frames rejected without crashing (a
// seeded frame fuzzer plus targeted corruptions), oversized requests
// capped with a typed TOO_LARGE error, and how the result cache meets
// shared-scan batching at admission.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/query_cache.h"
#include "gis/catalog.h"
#include "pointcloud/generator.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sql/executor.h"
#include "sql/session.h"
#include "util/rng.h"

namespace geocol {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    AhnGeneratorOptions opts;
    opts.extent = Box(85000, 444000, 85060, 444060);
    AhnGenerator gen(opts);
    auto table = gen.GenerateTable(5000);
    ASSERT_TRUE(table.ok());
    num_rows_ = static_cast<double>((*table)->num_rows());
    catalog_ = new Catalog();
    ASSERT_TRUE(catalog_->AddPointCloud("ahn2", *table).ok());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }
  static Catalog* catalog_;
  static double num_rows_;
};

Catalog* ServerTest::catalog_ = nullptr;
double ServerTest::num_rows_ = 0;

server::Client MustConnect(int port, const std::string& id = "") {
  server::Client::Options copts;
  copts.port = port;
  copts.client_id = id;
  auto client = server::Client::Connect(copts);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(*client);
}

/// Raw TCP connect for byte-level protocol abuse.
int RawConnect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

TEST_F(ServerTest, StartStopIdempotentAndRestartable) {
  server::Server srv(catalog_, {});
  ASSERT_TRUE(srv.Start().ok());
  EXPECT_TRUE(srv.running());
  const int first_port = srv.port();
  EXPECT_GT(first_port, 0);
  // Starting a running server is an error, not a second listener.
  EXPECT_FALSE(srv.Start().ok());

  {
    auto client = MustConnect(first_port);
    ASSERT_TRUE(client.Ping().ok());
    auto rs = client.Query("SELECT COUNT(*) FROM ahn2");
    ASSERT_TRUE(rs.ok());
    EXPECT_TRUE(rs->ok);
  }

  srv.Stop();
  EXPECT_FALSE(srv.running());
  EXPECT_EQ(srv.port(), 0);
  srv.Stop();  // idempotent
  EXPECT_FALSE(srv.running());

  // A stopped server starts again and serves queries.
  ASSERT_TRUE(srv.Start().ok());
  EXPECT_TRUE(srv.running());
  {
    auto client = MustConnect(srv.port());
    auto rs = client.Query("SELECT COUNT(*) FROM ahn2");
    ASSERT_TRUE(rs.ok());
    EXPECT_TRUE(rs->ok);
    EXPECT_EQ(rs->result.rows[0][0].number, num_rows_);
  }
  srv.Stop();
}

// Options that cannot serve are rejected before a socket exists: zero or
// negative workers would admit tasks no thread pops, and a port above
// 65535 would be truncated into some other port.
TEST_F(ServerTest, StartRejectsBadWorkersAndPort) {
  struct Case {
    int workers;
    int port;
  };
  for (const Case& c : {Case{0, 0}, Case{-1, 0}, Case{2, 70000}}) {
    server::ServerOptions opts;
    opts.workers = c.workers;
    opts.port = c.port;
    server::Server srv(catalog_, opts);
    const Status st = srv.Start();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << "workers=" << c.workers << " port=" << c.port << ": "
        << st.ToString();
    EXPECT_FALSE(srv.running());
    EXPECT_EQ(srv.port(), 0);
  }
}

TEST_F(ServerTest, StopDrainsInFlightQueries) {
  // One worker, blocked in the test hook while holding the first task;
  // a second task sits admitted in the queue. Stop() must complete both
  // (and deliver both responses) before returning — admitted work is
  // drained, never dropped.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> held{0};
  server::ServerOptions opts;
  opts.workers = 1;
  opts.before_execute_hook = [&](const server::QueryTask&) {
    if (held.fetch_add(1) == 0) {  // block only the first pop
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
  };
  server::Server srv(catalog_, opts);
  ASSERT_TRUE(srv.Start().ok());
  const int port = srv.port();

  std::atomic<int> ok_replies{0};
  auto run_query = [&] {
    auto client = MustConnect(port);
    auto rs = client.Query("SELECT COUNT(*) FROM ahn2");
    if (rs.ok() && rs->ok && rs->result.rows[0][0].number == num_rows_) {
      ok_replies.fetch_add(1);
    }
  };
  std::thread q1(run_query);
  // Wait until the worker holds task 1 in the hook.
  while (held.load() == 0) std::this_thread::yield();
  std::thread q2(run_query);
  // Task 2 must be admitted before the queue closes.
  while (srv.stats().queue_depth < 1) std::this_thread::yield();

  std::thread stopper([&] { srv.Stop(); });
  // Stop() is now draining; release the worker so both tasks complete.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  stopper.join();
  q1.join();
  q2.join();
  EXPECT_FALSE(srv.running());
  EXPECT_EQ(ok_replies.load(), 2);
  server::ServerStats s = srv.stats();
  EXPECT_EQ(s.queries_ok, 2u);
  EXPECT_EQ(s.queries_error, 0u);
}

TEST_F(ServerTest, MalformedFramesNeverCrashTheServer) {
  server::Server srv(catalog_, {});
  ASSERT_TRUE(srv.Start().ok());
  const int port = srv.port();

  // Targeted corruptions first. Zero-length frame:
  {
    int fd = RawConnect(port);
    uint32_t len = 0;
    ASSERT_EQ(::send(fd, &len, sizeof(len), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(len)));
    auto reply = server::ReadFrame(fd, server::kMaxResponseFrameBytes);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, server::FrameType::kError);
    auto err = server::DecodeError(reply->payload);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err->code, server::ErrorCode::kMalformed);
    ::close(fd);
  }
  // Truncated frame: the length prefix promises more bytes than arrive.
  {
    int fd = RawConnect(port);
    uint32_t len = 100;
    ASSERT_EQ(::send(fd, &len, sizeof(len), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(len)));
    uint8_t partial[10] = {2};  // kQuery, then silence
    ASSERT_EQ(::send(fd, partial, sizeof(partial), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(partial)));
    ::close(fd);  // server sees a short read mid-frame
  }
  // Unknown frame type gets a typed MALFORMED and the connection closes.
  {
    int fd = RawConnect(port);
    ASSERT_TRUE(server::WriteFrame(fd, static_cast<server::FrameType>(200),
                                   {1, 2, 3})
                    .ok());
    auto reply = server::ReadFrame(fd, server::kMaxResponseFrameBytes);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, server::FrameType::kError);
    auto err = server::DecodeError(reply->payload);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err->code, server::ErrorCode::kMalformed);
    ::close(fd);
  }

  // Seeded frame fuzzer: random byte blasts, each on a fresh connection.
  Rng rng(901);
  for (int iter = 0; iter < 200; ++iter) {
    int fd = RawConnect(port);
    size_t len = rng.Uniform(64);
    std::vector<uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.Uniform(256));
    if (!bytes.empty()) {
      (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    }
    if (rng.Uniform(2) == 0) ::shutdown(fd, SHUT_WR);
    ::close(fd);
  }

  // The server survived and still answers correctly.
  auto client = MustConnect(port);
  auto rs = client.Query("SELECT COUNT(*) FROM ahn2");
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rs->ok);
  EXPECT_EQ(rs->result.rows[0][0].number, num_rows_);
  server::ServerStats s = srv.stats();
  EXPECT_GE(s.malformed, 2u);
  srv.Stop();
}

TEST_F(ServerTest, OversizedRequestGetsTypedErrorAndCapsMemory) {
  server::ServerOptions opts;
  opts.max_request_bytes = 1024;
  server::Server srv(catalog_, opts);
  ASSERT_TRUE(srv.Start().ok());

  int fd = RawConnect(srv.port());
  std::vector<uint8_t> big(4096, 'x');
  ASSERT_TRUE(server::WriteFrame(fd, server::FrameType::kQuery, big).ok());
  auto reply = server::ReadFrame(fd, server::kMaxResponseFrameBytes);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, server::FrameType::kError);
  auto err = server::DecodeError(reply->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, server::ErrorCode::kTooLarge);
  EXPECT_EQ(err->status_code, StatusCode::kOutOfRange);
  // The connection is closed after an oversized prefix (the stream is
  // unrecoverable); the next read sees EOF.
  auto eof = server::ReadFrame(fd, server::kMaxResponseFrameBytes);
  EXPECT_FALSE(eof.ok());
  ::close(fd);

  // A request just under the cap still works on a new connection.
  auto client = MustConnect(srv.port());
  auto rs = client.Query("SELECT COUNT(*) FROM ahn2");
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->ok);
  EXPECT_EQ(srv.stats().oversized, 1u);
  srv.Stop();
}

TEST_F(ServerTest, MidReplyDisconnectsDoNotLeakConnectionSlots) {
  server::Server srv(catalog_, {});
  ASSERT_TRUE(srv.Start().ok());
  const int port = srv.port();

  // Clients that hang up without reading their reply (linger-0 close
  // sends an RST) drive the server's reply writes into failure; every
  // such connection must still close its server-side fd and hand back
  // its slot — a long-lived server would otherwise run out of fds.
  const std::string sql = "SELECT COUNT(*) FROM ahn2";
  const std::vector<uint8_t> payload(sql.begin(), sql.end());
  for (int i = 0; i < 100; ++i) {
    int fd = RawConnect(port);
    ASSERT_TRUE(
        server::WriteFrame(fd, server::FrameType::kQuery, payload).ok());
    struct linger lg {1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(fd);
  }

  // Reaping rides the accept path: poke the server with fresh
  // connections until every abandoned slot is reclaimed.
  bool reclaimed = false;
  for (int attempt = 0; attempt < 300 && !reclaimed; ++attempt) {
    auto client = MustConnect(port);
    ASSERT_TRUE(client.Ping().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    reclaimed = srv.stats().conn_slots <= 4;
  }
  EXPECT_TRUE(reclaimed) << "conn_slots stuck at "
                         << srv.stats().conn_slots;

  // And the survivor still serves correct results.
  auto client = MustConnect(port);
  auto rs = client.Query("SELECT COUNT(*) FROM ahn2");
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rs->ok);
  EXPECT_EQ(rs->result.rows[0][0].number, num_rows_);
  srv.Stop();
}

// ---------------------------------------------------------------------------
// Result cache x shared-scan batching. The engine binds a private cache;
// a one-worker server is held on a plug statement until every statement
// under test is queued, so the worker's next pops see them all at once.
// ---------------------------------------------------------------------------

class ServerCacheTest : public ::testing::Test {
 protected:
  static constexpr const char* kPlug = "SELECT COUNT(*) FROM ahn2";

  void SetUp() override {
    AhnGeneratorOptions opts;
    opts.extent = Box(85000, 444000, 85060, 444060);
    AhnGenerator gen(opts);
    auto table = gen.GenerateTable(5000);
    ASSERT_TRUE(table.ok());
    EngineOptions eopts;
    eopts.cache.budget_bytes = 16ull << 20;
    eopts.cache.instance = cache_;
    ASSERT_TRUE(catalog_.AddPointCloud("ahn2", *table, eopts).ok());
  }

  /// Runs `sql` twice through a local session on the same engine: the
  /// first sighting, then the admission. Returns the reply digest.
  uint32_t MakeResident(const std::string& sql) {
    sql::Session local(&catalog_);
    uint32_t digest = 0;
    for (int i = 0; i < 2; ++i) {
      auto rs = local.Execute(sql);
      EXPECT_TRUE(rs.ok()) << rs.status().ToString();
      if (rs.ok()) digest = sql::ResultSetDigest(*rs);
    }
    EXPECT_GT(cache_->Stats().tier[0].entries, 0u);
    return digest;
  }

  /// Serves `statements` behind the plug. `before_release` runs once all
  /// are queued and the worker is still held. Returns the reply digests
  /// in statement order.
  std::vector<uint32_t> ServePiledUp(
      const std::vector<std::string>& statements,
      const std::function<void()>& before_release,
      server::ServerStats* stats) {
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;
    std::atomic<int> held{0};
    server::ServerOptions sopts;
    sopts.workers = 1;
    sopts.before_execute_hook = [&](const server::QueryTask&) {
      if (held.fetch_add(1) == 0) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
      }
    };
    server::Server srv(&catalog_, sopts);
    EXPECT_TRUE(srv.Start().ok());
    const int port = srv.port();
    std::thread plug([&] {
      auto client = MustConnect(port);
      auto rs = client.Query(kPlug);
      EXPECT_TRUE(rs.ok() && rs->ok);
    });
    while (held.load() == 0) std::this_thread::yield();

    std::vector<uint32_t> digests(statements.size(), 0);
    std::vector<std::thread> clients;
    for (size_t i = 0; i < statements.size(); ++i) {
      clients.emplace_back([&, i] {
        auto client = MustConnect(port);
        auto rs = client.Query(statements[i]);
        EXPECT_TRUE(rs.ok() && rs->ok) << statements[i];
        if (rs.ok() && rs->ok) digests[i] = sql::ResultSetDigest(rs->result);
      });
    }
    while (srv.stats().queue_depth < statements.size()) {
      std::this_thread::yield();
    }
    before_release();
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    plug.join();
    for (auto& t : clients) t.join();
    srv.Stop();
    *stats = srv.stats();
    return digests;
  }

  std::shared_ptr<cache::QueryResultCache> cache_ =
      std::make_shared<cache::QueryResultCache>();
  Catalog catalog_;
};

const std::vector<std::string>& OverlappingViewports() {
  static const std::vector<std::string> statements = {
      "SELECT COUNT(*) FROM ahn2 WHERE x BETWEEN 85005 AND 85045"
      " AND y BETWEEN 444005 AND 444045",
      "SELECT AVG(z), MAX(z) FROM ahn2 WHERE x BETWEEN 85015 AND 85055"
      " AND y BETWEEN 444010 AND 444050",
      "SELECT x, y, z FROM ahn2 WHERE x BETWEEN 85020 AND 85040"
      " AND y BETWEEN 444020 AND 444040 ORDER BY z DESC LIMIT 8",
  };
  return statements;
}

TEST_F(ServerCacheTest, ResidentSelectionRunsSoloFromTheCache) {
  const std::string resident =
      "SELECT COUNT(*), AVG(z) FROM ahn2 WHERE x BETWEEN 85010 AND 85050"
      " AND y BETWEEN 444010 AND 444050";
  const uint32_t solo_digest = MakeResident(resident);
  MakeResident(kPlug);
  std::vector<std::string> statements = {resident, OverlappingViewports()[0],
                                         OverlappingViewports()[1]};
  cache::CacheStats before;
  server::ServerStats s;
  auto digests =
      ServePiledUp(statements, [&] { before = cache_->Stats(); }, &s);
  const cache::CacheStats after = cache_->Stats();

  // The two viewports share one scan; the resident statement is no member.
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.batch_members, 2u);
  EXPECT_EQ(s.batch_fallbacks, 0u);
  EXPECT_EQ(digests[0], solo_digest);
  // Its reply came from the cache: one hit for it and one for the plug.
  EXPECT_EQ(after.tier[0].hits, before.tier[0].hits + 2);
  EXPECT_EQ(after.tier[0].misses, before.tier[0].misses);
}

TEST_F(ServerCacheTest, SharedScanAddsNoCacheEntryAndNoMiss) {
  MakeResident(kPlug);
  cache::CacheStats before;
  server::ServerStats s;
  ServePiledUp(OverlappingViewports(), [&] { before = cache_->Stats(); },
               &s);
  const cache::CacheStats after = cache_->Stats();

  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.batch_members, OverlappingViewports().size());
  // The superset scan neither looked up nor stored, and batch members
  // render from the shared rows: only the plug's hit moved the counters.
  EXPECT_EQ(after.tier[0].misses, before.tier[0].misses);
  EXPECT_EQ(after.tier[0].inserts, before.tier[0].inserts);
  EXPECT_EQ(after.tier[0].entries, before.tier[0].entries);
  EXPECT_EQ(after.tier[0].hits, before.tier[0].hits + 1);
  EXPECT_EQ(cache_->bytes_used(), before.bytes_used);
}

}  // namespace
}  // namespace geocol
