// Located real-valued variables.
//
// A specification formula talks about *roles* (`T.ibw`, `node.cpu`,
// `link.lbw`); a ground action talks about *located variables*: the ibw of
// the T stream at node 4, the cpu of node 0, the lbw of link 2.  VarRegistry
// interns (kind, entity, resource-name) triples into dense VarIds so that
// optimistic resource maps are flat arrays indexed by VarId.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "support/ids.hpp"
#include "support/interner.hpp"

namespace sekitei::model {

enum class VarKind : unsigned char { NodeRes, LinkRes, IfaceProp };

struct VarKey {
  VarKind kind = VarKind::NodeRes;
  std::uint32_t a = 0;  // node index | link index | interface index
  std::uint32_t b = 0;  // resource NameId | resource NameId | node index
  std::uint32_t c = 0;  // unused      | unused           | property NameId

  friend bool operator==(const VarKey& x, const VarKey& y) {
    return x.kind == y.kind && x.a == y.a && x.b == y.b && x.c == y.c;
  }
};

struct VarKeyHash {
  std::size_t operator()(const VarKey& k) const noexcept {
    std::size_t h = static_cast<std::size_t>(k.kind);
    h = h * 1099511628211ULL ^ k.a;
    h = h * 1099511628211ULL ^ k.b;
    h = h * 1099511628211ULL ^ k.c;
    return h;
  }
};

class VarRegistry {
 public:
  VarId node_res(NodeId node, NameId res) {
    return intern({VarKind::NodeRes, node.index(), res.index(), 0});
  }
  VarId link_res(LinkId link, NameId res) {
    return intern({VarKind::LinkRes, link.index(), res.index(), 0});
  }
  VarId iface_prop(InterfaceId iface, NodeId node, NameId prop) {
    return intern({VarKind::IfaceProp, iface.index(), node.index(), prop.index()});
  }

  [[nodiscard]] const VarKey& key(VarId id) const {
    SEKITEI_ASSERT(id.index() < keys_.size());
    return keys_[id.index()];
  }

  [[nodiscard]] std::size_t size() const { return keys_.size(); }

  /// Human-readable description, e.g. "ibw(M@n3)" or "cpu(n0)" or "lbw(n0-n1)".
  [[nodiscard]] std::string describe(VarId id, const net::Network& net,
                                     const Interner& names,
                                     const std::vector<std::string>& iface_names) const;

 private:
  VarId intern(const VarKey& k) {
    auto it = index_.find(k);
    if (it != index_.end()) return it->second;
    VarId id(static_cast<std::uint32_t>(keys_.size()));
    keys_.push_back(k);
    index_.emplace(k, id);
    return id;
  }

  std::vector<VarKey> keys_;
  std::unordered_map<VarKey, VarId, VarKeyHash> index_;
};

/// Dense VarId -> T map with O(1) epoch-based clearing, so replays
/// (T = Interval) and concrete executions (T = double) do not allocate after
/// warm-up.
template <class T>
class VarMap {
 public:
  void reset(std::size_t var_count) {
    if (vals_.size() < var_count) {
      vals_.resize(var_count);
      epoch_.resize(var_count, 0);
    }
    ++cur_;
  }
  [[nodiscard]] bool has(VarId v) const { return epoch_[v.index()] == cur_; }
  [[nodiscard]] T get(VarId v) const { return vals_[v.index()]; }
  void set(VarId v, T x) {
    vals_[v.index()] = x;
    epoch_[v.index()] = cur_;
  }

 private:
  std::vector<T> vals_;
  std::vector<std::uint32_t> epoch_;
  std::uint32_t cur_ = 0;
};

}  // namespace sekitei::model
