#include "app/sharded_kv.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace vsg::app {

ShardedKV::ShardedKV(const std::vector<to::Service*>& shards)
    : n_(shards.empty() ? 0 : shards.front()->size()),
      router_(static_cast<int>(shards.size()), n_ > 0 ? n_ : 1) {
  if (shards.empty()) throw std::invalid_argument("ShardedKV: at least one shard required");
  kvs_.reserve(shards.size());
  for (to::Service* service : shards) {
    if (service == nullptr || service->size() != n_)
      throw std::invalid_argument(
          "ShardedKV: every shard must span the same processor set");
    kvs_.push_back(std::make_unique<ReplicatedKV>(*service));
  }
}

void ShardedKV::write(ProcId p, const std::string& key, const std::string& value) {
  kvs_[static_cast<std::size_t>(router_.shard_of(key))]->write(p, key, value);
}

std::optional<std::string> ShardedKV::read(ProcId p, const std::string& key) const {
  return kvs_[static_cast<std::size_t>(router_.shard_of(key))]->read(p, key);
}

void ShardedKV::barrier(int shard, ProcId p, ReplicatedKV::BarrierFn done) {
  this->shard(shard).barrier(p, std::move(done));
}

ReplicatedKV& ShardedKV::shard(int k) {
  return const_cast<ReplicatedKV&>(std::as_const(*this).shard(k));
}

const ReplicatedKV& ShardedKV::shard(int k) const {
  if (k < 0 || k >= shards())
    throw std::invalid_argument("ShardedKV: shard " + std::to_string(k) + " out of range [0, " +
                                std::to_string(shards()) + ")");
  return *kvs_[static_cast<std::size_t>(k)];
}

void ShardedKV::barrier_for(const std::string& key, ProcId p, ReplicatedKV::BarrierFn done) {
  barrier(router_.shard_of(key), p, std::move(done));
}

std::size_t ShardedKV::total_applied(ProcId replica) const {
  std::size_t total = 0;
  for (const auto& kv : kvs_) total += kv->applied_count(replica);
  return total;
}

std::size_t ShardedKV::writes_in_flight(ProcId p) const {
  std::size_t total = 0;
  for (const auto& kv : kvs_) total += kv->writes_in_flight(p);
  return total;
}

}  // namespace vsg::app
