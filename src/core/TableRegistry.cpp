//===- core/TableRegistry.cpp ---------------------------------*- C++ -*-===//

#include "core/TableRegistry.h"

#include "regex/TableIO.h"

#include <atomic>
#include <stdexcept>

using namespace rocksalt;
using namespace rocksalt::core;

TableRegistry &TableRegistry::instance() {
  // Immortal like its entries: never destroyed, so a lookup during
  // static destruction stays valid and every entry stays reachable
  // (leak checkers see them through Entries, not as lost memory).
  static TableRegistry *R = new TableRegistry;
  return *R;
}

const TableEntry *TableRegistry::findLocked(const TableKey &K) const {
  for (const TableEntry *E : Entries)
    if (E->Key == K)
      return E;
  return nullptr;
}

const TableEntry &TableRegistry::insertLocked(const TableKey &K,
                                              PolicyTables T) {
  // Everything an entry exposes is derived from the one tables instance
  // right here, under the lock: the canonical tagged blob (and so the
  // content address) and the fused fast-path form. Entries are
  // intentionally leaked — immortal, like the singletons this replaces.
  auto *E = new TableEntry;
  E->Key = K;
  E->Tables = new PolicyTables(std::move(T));
  E->Blob = serializePolicyTables(*E->Tables, K.Isa, K.PolicySet);
  E->HashHex = re::blobHashHex(E->Blob);
  E->Fused = new FusedPolicy(buildFusedPolicy(*E->Tables));
  Entries.push_back(E);
  return *E;
}

const TableEntry &TableRegistry::getOrBuild(const TableKey &K,
                                            PolicyTables (*Build)()) {
  std::lock_guard<std::mutex> L(M);
  if (const TableEntry *E = findLocked(K))
    return *E;
  return insertLocked(K, Build());
}

const TableEntry &TableRegistry::adopt(const TableKey &K, PolicyTables T) {
  std::lock_guard<std::mutex> L(M);
  if (const TableEntry *E = findLocked(K)) {
    std::string Hash =
        re::blobHashHex(serializePolicyTables(T, K.Isa, K.PolicySet));
    if (Hash == E->HashHex)
      return *E;
    throw std::runtime_error(
        "cannot adopt policy tables for " + K.Isa + "/" + K.PolicySet +
        ": a different table set (content hash " + E->HashHex +
        ") is already registered and in use; the adopted blob hashes to " +
        Hash);
  }
  return insertLocked(K, std::move(T));
}

const TableEntry *TableRegistry::byKey(std::string_view Isa,
                                       std::string_view PolicySet) const {
  std::lock_guard<std::mutex> L(M);
  for (const TableEntry *E : Entries)
    if (E->Key.Isa == Isa && E->Key.PolicySet == PolicySet &&
        E->Key.Format == re::TableFormatVersion)
      return E;
  return nullptr;
}

const TableEntry *TableRegistry::byHash(std::string_view HashHex) const {
  std::lock_guard<std::mutex> L(M);
  for (const TableEntry *E : Entries)
    if (E->HashHex == HashHex)
      return E;
  return nullptr;
}

std::vector<const TableEntry *> TableRegistry::entries() const {
  std::lock_guard<std::mutex> L(M);
  return Entries;
}

const TableEntry &core::defaultTableEntry() {
  // Entries are immortal and a key binds to one entry forever, so the
  // resolved pointer can be cached: the steady-state read is one
  // acquire load, matching the old double-checked singleton.
  static std::atomic<const TableEntry *> Cached{nullptr};
  if (const TableEntry *E = Cached.load(std::memory_order_acquire))
    return *E;
  const TableEntry &E = TableRegistry::instance().getOrBuild(
      TableKey{IsaX86, PolicySetNacl, re::TableFormatVersion},
      buildPolicyTables);
  Cached.store(&E, std::memory_order_release);
  return E;
}
