// Binary codec for community hierarchies: the payload of the epoch
// snapshot's kHierarchy section (storage/epoch_snapshot.h), which owns the
// magic, version and CRC32C. Building a hierarchy is the expensive part of
// engine construction on large graphs; restoring it from a snapshot lets a
// service or tool skip re-clustering. The payload stores the merge
// structure (per internal vertex, its children); depths and leaf intervals
// are recomputed on decode, so a decoded dendrogram is bit-identical in
// behaviour to the original.

#ifndef COD_HIERARCHY_DENDROGRAM_IO_H_
#define COD_HIERARCHY_DENDROGRAM_IO_H_

#include "common/binary_io.h"
#include "common/status.h"
#include "hierarchy/dendrogram.h"

namespace cod {

// DeserializeDendrogram validates structure (header bounds, child
// references, a single tree): corrupt bytes produce a Status, never a crash
// or an invalid Dendrogram.
void SerializeDendrogram(const Dendrogram& dendrogram,
                         BinaryBufferWriter& out);
Result<Dendrogram> DeserializeDendrogram(BinarySpanReader& in);

}  // namespace cod

#endif  // COD_HIERARCHY_DENDROGRAM_IO_H_
