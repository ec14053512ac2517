#ifndef START_COMMON_ATOMIC_FILE_H_
#define START_COMMON_ATOMIC_FILE_H_

#include <cstdio>
#include <functional>
#include <string>

#include "common/status.h"

namespace start::common {

/// \brief Replaces `path` atomically and durably with what `write` produces.
///
/// `write` fills a sibling temp file, `path + ".tmp"`; the file is then
/// flushed, fsynced and renamed over `path`, and the directory entry is
/// fsynced (best effort). A crash or an error at any point leaves the
/// previous contents of `path` intact: readers see either the old artifact
/// or the complete new one, never a torn file. On failure the temp file is
/// removed and the error of the failing step (or of `write`) is returned.
/// Every persisted artifact in the repo — checkpoints, HNSW indexes (both
/// through tensor::SaveBundle) and contraction hierarchies — is written
/// through here.
Status WriteFileAtomically(const std::string& path,
                           const std::function<Status(std::FILE*)>& write);

}  // namespace start::common

#endif  // START_COMMON_ATOMIC_FILE_H_
