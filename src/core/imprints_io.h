// Disk persistence for column imprints. MonetDB keeps imprints alongside
// the BAT heaps so a restarted server does not pay the rebuild; we mirror
// that with a compact sidecar file per column:
//   magic "GIM2" | column fingerprint u32 | epoch | rows |
//   values_per_line | num_bins | bounds[num_bins] | dict entries |
//   vectors | crc32c footer.
//
// The sidecar is pure cache: it is written atomically, verified against
// its CRC32C footer and against the live column (payload fingerprint,
// epoch, row count) on load, and a corrupt or stale file is quarantined
// and rebuilt — never trusted, never fatal to the query. The fingerprint
// ties the sidecar to the column's actual bytes, so two engines sharing
// an imprints dir can never adopt an index built for a same-named,
// same-sized column of a different table.
#ifndef GEOCOL_CORE_IMPRINTS_IO_H_
#define GEOCOL_CORE_IMPRINTS_IO_H_

#include <string>

#include "core/imprints.h"
#include "util/status.h"

namespace geocol {

class ThreadPool;

/// CRC32C over the column's type byte and raw payload — the identity that
/// ties a sidecar to the exact column bytes it was built from.
uint32_t ColumnFingerprint(const Column& column);

/// File-level sidecar metadata that is not part of the index itself.
struct ImprintsFileMeta {
  uint32_t column_fingerprint = 0;
};

/// Writes `index` to `path` atomically with a CRC32C footer, stamped with
/// `column_fingerprint` (pass `ColumnFingerprint(column)`).
Status WriteImprintsFile(const ImprintsIndex& index, const std::string& path,
                         uint32_t column_fingerprint = 0);

/// Reads and checksum-verifies an imprints file. The caller is responsible
/// for checking `built_epoch()` and the fingerprint in `meta` against the
/// live column before trusting the index.
Result<ImprintsIndex> ReadImprintsFile(const std::string& path,
                                       ImprintsFileMeta* meta = nullptr);

/// Loads the sidecar if it exists, verifies, and matches the column's
/// fingerprint, epoch and row count, else builds fresh (on `pool` when
/// given) and rewrites the sidecar. Degradation is graceful and logged:
///   - corrupt/unreadable sidecar (including any magic but "GIM2") ->
///     quarantined to `path + ".quarantined"` and rebuilt;
///   - stale sidecar (fingerprint, epoch or row-count mismatch) ->
///     rebuilt, overwritten;
///   - failure to persist the rebuilt sidecar -> logged, the fresh index
///     is still returned.
/// The only error path is the build itself failing.
Result<ImprintsIndex> LoadOrBuildImprints(const Column& column,
                                          const std::string& path,
                                          const ImprintsOptions& options = {},
                                          ThreadPool* pool = nullptr);

}  // namespace geocol

#endif  // GEOCOL_CORE_IMPRINTS_IO_H_
