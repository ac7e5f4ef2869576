// geobench's load generator: open-loop Poisson arrivals (or a closed loop)
// over a few protocol connections, one generator thread per connection.
// Every reply is digested; latency is timed from each request's due time,
// so a stall also charges the requests queued behind it at the generator.
#ifndef GEOBENCH_LOADGEN_H_
#define GEOBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "streams.h"
#include "util/status.h"

namespace geobench {

/// Steady-clock nanoseconds.
int64_t NowNanos();

/// One blocking connection speaking the geocol wire protocol. It drives
/// the frame calls itself (instead of server::Client) so that the reply
/// arrival and the end of decoding are stamped separately.
class Connection {
 public:
  struct Reply {
    bool ok = false;      ///< a result set; false = typed error reply
    uint32_t digest = 0;  ///< sql::ResultSetDigest of the result
    int64_t reply_nanos = 0;    ///< reply frame fully read
    int64_t decoded_nanos = 0;  ///< result set decoded
    std::string error;
  };

  /// Connects to 127.0.0.1:`port` and says HELLO as `client_id`.
  static geocol::Result<Connection> Open(int port, const std::string& client_id);

  Connection(Connection&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Connection& operator=(Connection&&) = delete;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection();

  /// Sends one statement and waits for its reply. A non-OK Status is a
  /// transport failure (the connection is then unusable).
  geocol::Result<Reply> Query(const std::string& sql);

 private:
  explicit Connection(int fd) : fd_(fd) {}
  int fd_ = -1;
};

/// A reply recorded for re-execution after the run. `epoch_lo`/`epoch_hi`
/// bracket the live-table epoch the statement could have read (both 0 on
/// static tables).
struct Sample {
  std::string sql;
  uint32_t digest = 0;
  uint64_t epoch_lo = 0;
  uint64_t epoch_hi = 0;
};

/// Client-side timeline of one traced request.
struct Span {
  uint64_t id = 0;
  uint32_t conn = 0;
  int64_t due = 0, send = 0, reply = 0, decoded = 0;
};

struct PhaseOptions {
  /// Offered rate over all connections; 0 runs a closed loop (each
  /// connection sends its next statement as soon as the reply is in).
  double rate_qps = 0;
  double seconds = 1;
  uint64_t seed = 0;
  bool record_spans = false;
  /// Reads the served live table's epoch (null on static tables).
  std::function<uint64_t()> epoch;
};

struct PhaseResult {
  std::vector<double> latency_ms;  ///< completed requests, from due time
  std::vector<double> late_ms;     ///< send time minus due time
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;     ///< typed error replies
  uint64_t transport = 0;  ///< connection failures
  uint64_t missed = 0;     ///< due, but not sent before the drain deadline
  double elapsed_s = 0;    ///< phase start to the last reply
  std::vector<Sample> samples;  ///< a seeded 1-in-16 sample of the replies
  std::vector<Span> spans;
  std::vector<std::string> error_messages;  ///< first few, for diagnosis

  uint64_t failed() const { return errors + transport + missed; }
};

/// Pools `src` into `dst`: samples and spans append, counts add up, and
/// the elapsed time is the longer of the two.
void MergeInto(PhaseResult* dst, PhaseResult src);

using StreamFactory =
    std::function<std::unique_ptr<StatementStream>(uint64_t seed)>;

/// Runs one phase on every connection (one thread each) and merges the
/// per-connection results.
PhaseResult RunPhase(std::vector<Connection>& conns,
                     const StreamFactory& streams, const PhaseOptions& opts);

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Writes `spans` as a Chrome trace_event JSON document: per request a
/// parent span (due to decoded) with three children (generator wait,
/// server round trip, client decode), laned by connection.
geocol::Status WriteChromeTrace(const std::vector<Span>& spans,
                                const std::string& label,
                                const std::string& path);

}  // namespace geobench

#endif  // GEOBENCH_LOADGEN_H_
