#include "storage/snapshot.h"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

namespace rdfopt {

namespace {

constexpr char kMagic[4] = {'R', 'D', 'F', 'O'};
constexpr uint32_t kVersion = 1;

void WriteU32(std::ostream& out, uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteU64(std::ostream& out, uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
bool ReadU32(std::istream& in, uint32_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}
bool ReadU64(std::istream& in, uint64_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}

void WriteTriples(std::ostream& out, const std::vector<Triple>& triples) {
  WriteU64(out, triples.size());
  for (const Triple& t : triples) {
    WriteU32(out, t.s);
    WriteU32(out, t.p);
    WriteU32(out, t.o);
  }
}

Status ReadTriples(std::istream& in, size_t num_terms, const char* what,
                   std::vector<Triple>* out) {
  uint64_t count = 0;
  if (!ReadU64(in, &count)) {
    return Status::ParseError(std::string("snapshot truncated before ") +
                              what + " count");
  }
  out->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t s, p, o;
    if (!ReadU32(in, &s) || !ReadU32(in, &p) || !ReadU32(in, &o)) {
      return Status::ParseError(std::string("snapshot truncated inside ") +
                                what);
    }
    if (s >= num_terms || p >= num_terms || o >= num_terms) {
      return Status::ParseError(
          std::string("snapshot triple references unknown term in ") + what);
    }
    out->push_back(Triple{s, p, o});
  }
  return Status::OK();
}

}  // namespace

Status SaveGraphSnapshot(const Graph& graph, const std::string& path) {
  // Written to a private temporary and renamed into place, so a reader (or a
  // concurrent writer of the same path) sees either the old file or the
  // complete new one, never a torn write.
  static std::atomic<uint64_t> next_temp{0};
  const std::string temp = path + ".tmp." + std::to_string(::getpid()) + "." +
                           std::to_string(next_temp.fetch_add(1));
  std::ofstream out(temp, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open " + temp + " for writing");
  }
  out.write(kMagic, sizeof(kMagic));
  WriteU32(out, kVersion);

  const Dictionary& dict = graph.dict();
  WriteU64(out, dict.size());
  for (ValueId id = 0; id < dict.size(); ++id) {
    const Term& term = dict.term(id);
    out.put(static_cast<char>(term.kind));
    WriteU32(out, static_cast<uint32_t>(term.lexical.size()));
    out.write(term.lexical.data(),
              static_cast<std::streamsize>(term.lexical.size()));
  }
  WriteTriples(out, graph.schema_triples());
  WriteTriples(out, graph.data_triples());
  out.close();
  if (!out) {
    std::remove(temp.c_str());
    return Status::Internal("write to " + temp + " failed");
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return Status::Internal("cannot rename " + temp + " to " + path);
  }
  return Status::OK();
}

Result<Graph> LoadGraphSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);

  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in.good() || std::string_view(magic, 4) != std::string_view(kMagic, 4)) {
    return Status::ParseError(path + " is not an rdfopt snapshot");
  }
  uint32_t version = 0;
  if (!ReadU32(in, &version) || version != kVersion) {
    return Status::ParseError("unsupported snapshot version");
  }

  Graph graph;
  uint64_t num_terms = 0;
  if (!ReadU64(in, &num_terms)) {
    return Status::ParseError("snapshot truncated before the dictionary");
  }
  for (uint64_t i = 0; i < num_terms; ++i) {
    int kind_byte = in.get();
    uint32_t len = 0;
    if (kind_byte == EOF || !ReadU32(in, &len)) {
      return Status::ParseError("snapshot truncated inside the dictionary");
    }
    if (kind_byte > 2) {
      return Status::ParseError("snapshot contains an unknown term kind");
    }
    std::string lexical(len, '\0');
    in.read(lexical.data(), static_cast<std::streamsize>(len));
    if (!in.good()) {
      return Status::ParseError("snapshot truncated inside a term");
    }
    Term term{static_cast<TermKind>(kind_byte), std::move(lexical)};
    ValueId assigned = graph.dict().Intern(term);
    if (assigned != i) {
      // The graph constructor pre-interns the five vocabulary IRIs; a valid
      // snapshot (written from a Graph) lists them first, so ids line up.
      // Anything else indicates a corrupted or foreign dictionary.
      return Status::ParseError("snapshot dictionary ids do not line up");
    }
  }

  std::vector<Triple> schema_triples;
  RDFOPT_RETURN_NOT_OK(
      ReadTriples(in, num_terms, "schema triples", &schema_triples));
  std::vector<Triple> data_triples;
  RDFOPT_RETURN_NOT_OK(
      ReadTriples(in, num_terms, "data triples", &data_triples));
  for (const Triple& t : schema_triples) graph.AddEncoded(t.s, t.p, t.o);
  for (const Triple& t : data_triples) graph.AddEncoded(t.s, t.p, t.o);
  graph.FinalizeSchema();
  return graph;
}

}  // namespace rdfopt
