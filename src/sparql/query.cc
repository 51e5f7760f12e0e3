#include "sparql/query.h"

#include <algorithm>
#include <unordered_map>

namespace rdfopt {

void TriplePattern::AppendVariables(std::vector<VarId>* out) const {
  if (s.is_var()) out->push_back(s.var());
  if (p.is_var()) out->push_back(p.var());
  if (o.is_var()) out->push_back(o.var());
}

bool TriplePattern::SharesVariableWith(const TriplePattern& other) const {
  for (const PatternTerm* mine : {&s, &p, &o}) {
    if (!mine->is_var()) continue;
    for (const PatternTerm* theirs : {&other.s, &other.p, &other.o}) {
      if (theirs->is_var() && theirs->var() == mine->var()) return true;
    }
  }
  return false;
}

VarId VarTable::GetOrCreate(std::string_view name) {
  for (VarId v = 0; v < names_.size(); ++v) {
    if (names_[v] == name) return v;
  }
  names_.emplace_back(name);
  return static_cast<VarId>(names_.size() - 1);
}

VarId VarTable::Fresh() {
  // Fresh names start with '_', which the parser rejects in user variables,
  // so collisions with user names are impossible.
  names_.push_back("_f" + std::to_string(next_fresh_++));
  return static_cast<VarId>(names_.size() - 1);
}

VarTable VarTable::AsOf(Watermark mark) const {
  VarTable table;
  table.names_.assign(names_.begin(),
                      names_.begin() + static_cast<ptrdiff_t>(mark.size));
  table.next_fresh_ = mark.next_fresh;
  return table;
}

std::vector<VarId> ConjunctiveQuery::AllVariables() const {
  std::vector<VarId> vars;
  for (const TriplePattern& atom : atoms) atom.AppendVariables(&vars);
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

bool ConjunctiveQuery::IsConnected() const {
  if (atoms.size() <= 1) return true;
  // Union-find over atoms joined by shared variables.
  std::vector<size_t> parent(atoms.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (size_t i = 0; i < atoms.size(); ++i) {
    for (size_t j = i + 1; j < atoms.size(); ++j) {
      if (atoms[i].SharesVariableWith(atoms[j])) {
        parent[find(i)] = find(j);
      }
    }
  }
  size_t root = find(0);
  for (size_t i = 1; i < atoms.size(); ++i) {
    if (find(i) != root) return false;
  }
  return true;
}

uint64_t CanonicalHash(const ConjunctiveQuery& cq,
                       size_t num_original_vars) {
  uint64_t h = 0xCBF29CE484222325ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ull;
    h ^= h >> 29;
  };
  // Fresh variables renumbered in first-occurrence order, like CanonicalKey.
  std::unordered_map<VarId, uint32_t> fresh_rename;
  auto mix_term = [&](const PatternTerm& t) {
    if (!t.is_var()) {
      mix(0xC0000000ull | t.value());
      return;
    }
    if (t.var() < num_original_vars) {
      mix(0x80000000ull | t.var());
      return;
    }
    auto it = fresh_rename
                  .emplace(t.var(), static_cast<uint32_t>(fresh_rename.size()))
                  .first;
    mix(0x40000000ull | it->second);
  };
  for (VarId v : cq.head) mix(0x10000000ull | v);
  for (const auto& [v, c] : cq.head_bindings) {
    mix(0x20000000ull | v);
    mix(c);
  }
  for (const TriplePattern& atom : cq.atoms) {
    mix_term(atom.s);
    mix_term(atom.p);
    mix_term(atom.o);
  }
  return h;
}

std::string CanonicalKey(const ConjunctiveQuery& cq,
                         size_t num_original_vars) {
  std::unordered_map<VarId, uint32_t> fresh_rename;
  auto term_key = [&](const PatternTerm& t) -> std::string {
    if (!t.is_var()) return "c" + std::to_string(t.value());
    if (t.var() < num_original_vars) return "v" + std::to_string(t.var());
    auto it = fresh_rename
                  .emplace(t.var(), static_cast<uint32_t>(fresh_rename.size()))
                  .first;
    return "f" + std::to_string(it->second);
  };
  std::string key;
  for (VarId v : cq.head) {
    key += "h" + std::to_string(v) + ",";
  }
  key += "|";
  for (const auto& [v, c] : cq.head_bindings) {
    key += "b" + std::to_string(v) + "=" + std::to_string(c) + ",";
  }
  key += "|";
  for (const TriplePattern& atom : cq.atoms) {
    key += term_key(atom.s) + " " + term_key(atom.p) + " " + term_key(atom.o) +
           ". ";
  }
  return key;
}

}  // namespace rdfopt
