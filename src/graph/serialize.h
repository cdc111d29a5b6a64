/**
 * @file
 * Binary serialization for graphs and datasets — the "data loader" role
 * DGL plays in the original system (paper Section 5). Replica generation
 * is deterministic but not free; persisting a dataset makes repeated
 * benchmark runs and external tooling cheap.
 *
 * Format: little-endian, magic + version header, then raw arrays. Not
 * intended to be portable across endianness.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "graph/csr_graph.h"
#include "graph/datasets.h"

namespace fastgl {
namespace graph {

/**
 * Bytes between the read position of @p file and its end (0 when the
 * file is not seekable). Loaders trust a file-supplied count only as
 * far as these bytes can back it: a corrupt or hostile header must fail
 * the load, not abort it with bad_alloc.
 */
uint64_t bytes_left(std::FILE *file);

/**
 * True when only whitespace remains in @p file. The text loaders call it
 * after their last entry, so a file holds exactly the entries its header
 * counts.
 */
bool only_space_left(std::FILE *file);

/** Write @p graph to @p path. @return false on IO failure. */
bool save_graph(const CsrGraph &graph, const std::string &path);

/**
 * Read a graph written by save_graph.
 * @param[out] graph destination
 * @return false on IO failure, bad magic, or failed validation.
 */
bool load_graph(CsrGraph &graph, const std::string &path);

/**
 * Write a whole dataset (topology + feature/label parameters + split).
 * Features are stored by their generator seed (they are a pure function
 * of it), so files stay small even for wide features.
 */
bool save_dataset(const Dataset &dataset, const std::string &path);

/** Read a dataset written by save_dataset. */
bool load_dataset(Dataset &dataset, const std::string &path,
                  bool materialize_features = true);

} // namespace graph
} // namespace fastgl
