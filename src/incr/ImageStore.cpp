//===- incr/ImageStore.cpp - Registered mutating images -------------------===//

#include "incr/ImageStore.h"

#include <numeric>
#include <stdexcept>

using namespace rocksalt;
using namespace rocksalt::incr;

ImageId ImageStore::open(std::vector<uint8_t> Bytes, uint32_t ChunkBytes) {
  if (ChunkBytes == 0 || ChunkBytes % core::BundleSize != 0)
    throw std::invalid_argument(
        "image chunk granularity must be a nonzero multiple of the bundle "
        "size");
  ImageEntry E;
  E.Bytes = std::move(Bytes);
  E.ChunkBytes = ChunkBytes;
  uint32_t NumChunks = (E.size() + ChunkBytes - 1) / ChunkBytes;
  E.Chunks.resize(NumChunks);
  E.DirtyList.resize(NumChunks);
  std::iota(E.DirtyList.begin(), E.DirtyList.end(), 0u);
  ImageId Id = NextId++;
  Images.emplace(Id, std::move(E));
  return Id;
}

ImageEntry *ImageStore::get(ImageId Id) {
  auto It = Images.find(Id);
  return It == Images.end() ? nullptr : &It->second;
}

const ImageEntry *ImageStore::get(ImageId Id) const {
  auto It = Images.find(Id);
  return It == Images.end() ? nullptr : &It->second;
}

bool ImageStore::close(ImageId Id) { return Images.erase(Id) != 0; }
