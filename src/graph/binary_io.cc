#include "graph/binary_io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <numeric>
#include <vector>

#include "graph/graph_builder.h"

namespace holim {

namespace {

constexpr uint64_t kMagic = 0x484F4C494D470101ULL;  // "HOLIMG" + version 1.1

struct FileCloser {
  void operator()(FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<FILE, FileCloser>;

Status WriteBlob(FILE* f, const void* data, std::size_t bytes) {
  if (bytes > 0 && std::fwrite(data, 1, bytes, f) != bytes) {
    return Status::IOError("short write");
  }
  return Status::OK();
}

template <typename T>
Status WriteArray(FILE* f, const std::vector<T>& values) {
  const uint64_t count = values.size();
  HOLIM_RETURN_NOT_OK(WriteBlob(f, &count, sizeof(count)));
  return WriteBlob(f, values.data(), count * sizeof(T));
}

Status ReadBlob(FILE* f, void* data, std::size_t bytes) {
  if (bytes > 0 && std::fread(data, 1, bytes, f) != bytes) {
    return Status::IOError("short read (truncated or corrupt file)");
  }
  return Status::OK();
}

template <typename T>
Status ReadArray(FILE* f, std::vector<T>* values, uint64_t max_count) {
  uint64_t count = 0;
  HOLIM_RETURN_NOT_OK(ReadBlob(f, &count, sizeof(count)));
  if (count > max_count) {
    return Status::IOError("array length implausible (corrupt file)");
  }
  // The payload cannot exceed the bytes left in the file; reject a corrupt
  // count BEFORE resize so it can't trigger a gigabyte allocation.
  const long pos = std::ftell(f);
  if (pos >= 0 && std::fseek(f, 0, SEEK_END) == 0) {
    const long end = std::ftell(f);
    if (std::fseek(f, pos, SEEK_SET) != 0) {
      return Status::IOError("seek failed while validating array length");
    }
    if (end >= pos &&
        count * sizeof(T) > static_cast<uint64_t>(end - pos)) {
      return Status::IOError("array length exceeds file size (corrupt file)");
    }
  }
  values->resize(count);
  return ReadBlob(f, values->data(), count * sizeof(T));
}

}  // namespace

Status WriteGraphBundle(const std::string& path, const Graph& graph,
                        const std::vector<double>* edge_probability,
                        const std::vector<double>* node_opinion,
                        const std::vector<double>* edge_interaction) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IOError("cannot open for writing: " + path);

  HOLIM_RETURN_NOT_OK(WriteBlob(f.get(), &kMagic, sizeof(kMagic)));
  const uint64_t n = graph.num_nodes();
  HOLIM_RETURN_NOT_OK(WriteBlob(f.get(), &n, sizeof(n)));
  // Out-CSR in edge-id order: (source, target) per edge suffices to rebuild
  // bit-identical CSR via GraphBuilder (which sorts by (src, dst) — the
  // stored order is already sorted, so edge ids are preserved).
  std::vector<NodeId> sources, targets;
  sources.reserve(graph.num_edges());
  targets.reserve(graph.num_edges());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (NodeId v : graph.OutNeighbors(u)) {
      sources.push_back(u);
      targets.push_back(v);
    }
  }
  HOLIM_RETURN_NOT_OK(WriteArray(f.get(), sources));
  HOLIM_RETURN_NOT_OK(WriteArray(f.get(), targets));

  const auto write_optional = [&](const std::vector<double>* values,
                                  uint64_t expected) -> Status {
    const uint8_t present = values != nullptr;
    HOLIM_RETURN_NOT_OK(WriteBlob(f.get(), &present, sizeof(present)));
    if (!present) return Status::OK();
    if (values->size() != expected) {
      return Status::InvalidArgument("parameter array size mismatch");
    }
    return WriteArray(f.get(), *values);
  };
  HOLIM_RETURN_NOT_OK(write_optional(edge_probability, graph.num_edges()));
  HOLIM_RETURN_NOT_OK(write_optional(node_opinion, graph.num_nodes()));
  HOLIM_RETURN_NOT_OK(write_optional(edge_interaction, graph.num_edges()));
  return Status::OK();
}

Result<GraphBundle> ReadGraphBundle(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open: " + path);

  uint64_t magic = 0;
  HOLIM_RETURN_NOT_OK(ReadBlob(f.get(), &magic, sizeof(magic)));
  if (magic != kMagic) {
    return Status::InvalidArgument("not a holim graph bundle (bad magic)");
  }
  uint64_t n = 0;
  HOLIM_RETURN_NOT_OK(ReadBlob(f.get(), &n, sizeof(n)));
  if (n > static_cast<uint64_t>(kInvalidNode)) {
    return Status::OutOfRange("node count exceeds NodeId range");
  }
  // Plausibility cap: CSR offsets allocate n+1 entries up front, so a
  // corrupt node count must not be allowed to demand gigabytes before any
  // structural check can fail.
  constexpr uint64_t kMaxNodes = 1ull << 28;
  if (n > kMaxNodes) {
    return Status::IOError("node count implausible (corrupt file)");
  }
  constexpr uint64_t kMaxEdges = 1ull << 36;  // plausibility bound
  std::vector<NodeId> sources, targets;
  HOLIM_RETURN_NOT_OK(ReadArray(f.get(), &sources, kMaxEdges));
  HOLIM_RETURN_NOT_OK(ReadArray(f.get(), &targets, kMaxEdges));
  if (sources.size() != targets.size()) {
    return Status::IOError("source/target arrays disagree (corrupt file)");
  }

  // EdgeIds follow (src, dst) order. WriteGraphBundle stores edges in that
  // order; other files are put in it here, stably, so duplicate pairs keep
  // their file order and the per-edge arrays read below can follow their
  // edges (file edge order[e] becomes EdgeId e).
  const auto edge_less = [&](std::size_t a, std::size_t b) {
    if (sources[a] != sources[b]) return sources[a] < sources[b];
    return targets[a] < targets[b];
  };
  bool sorted = true;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    // GraphBuilder::Build would also reject these, but as a caller-bug
    // InvalidArgument; here an out-of-range endpoint means the file lied.
    if (sources[i] >= n || targets[i] >= n) {
      return Status::IOError("edge endpoint " + std::to_string(i) +
                             " out of node range (corrupt file)");
    }
    if (i > 0 && edge_less(i, i - 1)) sorted = false;
  }
  std::vector<std::size_t> order;
  if (!sorted) {
    order.resize(sources.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::ranges::stable_sort(order, edge_less);
  }

  GraphBundle bundle;
  GraphBuilder builder(static_cast<NodeId>(n));
  builder.set_deduplicate(false);  // was already deduped when written
  for (std::size_t e = 0; e < sources.size(); ++e) {
    const std::size_t i = order.empty() ? e : order[e];
    builder.AddEdge(sources[i], targets[i]);
  }
  HOLIM_ASSIGN_OR_RETURN(bundle.graph, std::move(builder).Build());
  const auto follow_edges = [&](std::vector<double>* values) {
    if (order.empty() || values->empty()) return;
    std::vector<double> by_edge(values->size());
    for (std::size_t e = 0; e < order.size(); ++e) {
      by_edge[e] = (*values)[order[e]];
    }
    *values = std::move(by_edge);
  };

  const auto read_optional = [&](std::vector<double>* values,
                                 uint64_t expected, bool probability,
                                 const char* what) -> Status {
    uint8_t present = 0;
    HOLIM_RETURN_NOT_OK(ReadBlob(f.get(), &present, sizeof(present)));
    if (!present) return Status::OK();
    HOLIM_RETURN_NOT_OK(ReadArray(f.get(), values, kMaxEdges));
    if (values->size() != expected) {
      return Status::IOError("parameter array size mismatch (corrupt file)");
    }
    for (const double v : *values) {
      // NaN fails every range comparison; check finiteness explicitly.
      if (!std::isfinite(v) || (probability && (v < 0.0 || v > 1.0))) {
        return Status::IOError(std::string(what) +
                               (probability
                                    ? " outside finite [0,1] (corrupt file)"
                                    : " not finite (corrupt file)"));
      }
    }
    return Status::OK();
  };
  HOLIM_RETURN_NOT_OK(read_optional(&bundle.edge_probability,
                                    bundle.graph.num_edges(),
                                    /*probability=*/true,
                                    "edge probability"));
  HOLIM_RETURN_NOT_OK(read_optional(&bundle.node_opinion,
                                    bundle.graph.num_nodes(),
                                    /*probability=*/false, "node opinion"));
  HOLIM_RETURN_NOT_OK(read_optional(&bundle.edge_interaction,
                                    bundle.graph.num_edges(),
                                    /*probability=*/false,
                                    "edge interaction"));
  follow_edges(&bundle.edge_probability);
  follow_edges(&bundle.edge_interaction);
  // A well-formed bundle ends exactly here; trailing bytes mean the file
  // was concatenated, doubly written, or otherwise corrupt.
  uint8_t trailing = 0;
  if (std::fread(&trailing, 1, 1, f.get()) != 0) {
    return Status::IOError("trailing bytes after bundle (corrupt file)");
  }
  return bundle;
}

}  // namespace holim
