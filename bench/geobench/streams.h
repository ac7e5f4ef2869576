// Seeded SQL statement streams of the geobench workloads. One stream is one
// simulated user. The benchmark seed picks every viewport, statement kind
// and pool draw; the survey the statements run against is fixed.
#ifndef GEOBENCH_STREAMS_H_
#define GEOBENCH_STREAMS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "geom/geometry.h"

namespace geobench {

/// An endless sequence of statements from one user.
class StatementStream {
 public:
  virtual ~StatementStream() = default;
  virtual std::string Next() = 0;
};

/// A map user panning over `extent`: the viewport random-walks by 30 % of
/// its side per request across three zoom levels (0.2 %, 1 % and 4 % of
/// the extent's area, the middle one half the time), and each request is
/// one of six statement shapes: COUNT, AVG+MAX(z), a 256-row projection,
/// COUNT with a classification range, AVG(z) inside a polygon, and COUNT
/// near a polyline (ST_DWithin 5 m). Shapes and zoom levels are dealt in
/// shuffled rounds of 24, so every round holds each combination in
/// proportion. Used by `pan`, `archive` and the readers of `ingest`.
std::unique_ptr<StatementStream> MakePanUser(const geocol::Box& extent,
                                             uint64_t seed);

/// A dashboard user on one hot region around the centre of `extent`: 7 of
/// every 8 requests are Zipf(1.1) draws from a fixed pool of 48 statements
/// (32 overlapping boxes, 8 district polygons under two thematic filters
/// each), the 8th is a fresh jittered box in the same region.
std::unique_ptr<StatementStream> MakeDashboardUser(const geocol::Box& extent,
                                                   uint64_t seed);

/// Mixes `seed` with a stream label into an independent 64-bit seed.
uint64_t MixSeed(uint64_t seed, uint64_t label);

}  // namespace geobench

#endif  // GEOBENCH_STREAMS_H_
