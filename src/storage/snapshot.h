#ifndef RDFOPT_STORAGE_SNAPSHOT_H_
#define RDFOPT_STORAGE_SNAPSHOT_H_

#include <string>

#include "common/status.h"
#include "rdf/graph.h"

namespace rdfopt {

/// Binary snapshots of an RDF database (dictionary + schema + data triples).
///
/// Loading a snapshot is much faster than re-parsing N-Triples or
/// re-generating a synthetic workload, which matters once datasets reach
/// the paper's scales. The format is a private, versioned, little-endian
/// layout:
///
///   magic "RDFO" | u32 version | u64 #terms | terms (u8 kind, u32 len,
///   bytes) | u64 #schema triples | (u32 s,p,o)* | u64 #data triples |
///   (u32 s,p,o)*
///
/// Term ids are implicit (dense, in dictionary order), so triples reference
/// terms by position. Snapshots are not portable across endiannesses.
/// The file is written to a temporary beside `path` and renamed over it, so
/// `path` never holds a partial snapshot.
Status SaveGraphSnapshot(const Graph& graph, const std::string& path);

/// Loads a snapshot written by SaveGraphSnapshot. The returned graph's
/// schema is already finalized.
Result<Graph> LoadGraphSnapshot(const std::string& path);

}  // namespace rdfopt

#endif  // RDFOPT_STORAGE_SNAPSHOT_H_
