#include "fsmeta/namespace_tree.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "common/line_reader.h"

namespace anufs::fsmeta {

std::vector<std::string_view> split_path(std::string_view path) {
  std::vector<std::string_view> out;
  while (!path.empty()) {
    const std::size_t slash = path.find('/');
    const std::string_view head =
        slash == std::string_view::npos ? path : path.substr(0, slash);
    ANUFS_EXPECTS(!head.empty());  // no "//" or leading/trailing slash
    out.push_back(head);
    if (slash == std::string_view::npos) break;
    path.remove_prefix(slash + 1);
  }
  return out;
}

NamespaceTree::NamespaceTree() {
  Inode root;
  root.attrs.type = FileType::kDirectory;
  inodes_.emplace(kRootInode, std::move(root));
}

const NamespaceTree::Inode* NamespaceTree::find(InodeId id) const {
  const auto it = inodes_.find(id);
  return it == inodes_.end() ? nullptr : &it->second;
}

NamespaceTree::Inode* NamespaceTree::find(InodeId id) {
  const auto it = inodes_.find(id);
  return it == inodes_.end() ? nullptr : &it->second;
}

ResolveResult NamespaceTree::resolve(std::string_view path) const {
  ResolveResult r;
  r.inode = kRootInode;
  r.parent = kRootInode;
  if (path.empty()) return r;  // the root itself

  const std::vector<std::string_view> parts = split_path(path);
  InodeId current = kRootInode;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    ++r.components;
    const Inode* dir = find(current);
    ANUFS_ENSURES(dir != nullptr);
    if (dir->attrs.type != FileType::kDirectory) {
      r.status = OpStatus::kNotDirectory;
      r.inode = kNoInode;
      return r;
    }
    const auto it = dir->entries.find(std::string(parts[i]));
    if (it == dir->entries.end()) {
      r.status = OpStatus::kNotFound;
      r.inode = kNoInode;
      r.parent = current;
      r.leaf = std::string(parts[i]);
      return r;
    }
    r.parent = current;
    r.leaf = std::string(parts[i]);
    current = it->second;
  }
  r.inode = current;
  return r;
}

const Attributes* NamespaceTree::attributes(InodeId inode) const {
  const Inode* node = find(inode);
  return node == nullptr ? nullptr : &node->attrs;
}

std::size_t NamespaceTree::entry_count(InodeId dir) const {
  const Inode* node = find(dir);
  return node == nullptr ? 0 : node->entries.size();
}

NamespaceTree::MutateResult NamespaceTree::create(std::string_view path,
                                                  FileType type) {
  MutateResult m;
  const ResolveResult r = resolve(path);
  m.components = r.components;
  if (r.status == OpStatus::kOk) {
    m.status = OpStatus::kExists;
    return m;
  }
  if (r.status != OpStatus::kNotFound) {
    m.status = r.status;
    return m;
  }
  // The missing component must be the LAST one (parent must exist):
  // re-resolve the parent chain cheaply by checking the leaf ends path.
  const std::vector<std::string_view> parts = split_path(path);
  if (r.components != parts.size()) {
    m.status = OpStatus::kNotFound;  // an intermediate was missing
    return m;
  }
  Inode* parent = find(r.parent);
  ANUFS_ENSURES(parent != nullptr &&
                parent->attrs.type == FileType::kDirectory);
  const InodeId id{next_inode_++};
  Inode node;
  node.attrs.type = type;
  inodes_.emplace(id, std::move(node));
  parent->entries.emplace(r.leaf, id);
  parent->attrs.mtime += 1;
  m.status = OpStatus::kOk;
  m.inode = id;
  return m;
}

NamespaceTree::MutateResult NamespaceTree::remove(std::string_view path) {
  MutateResult m;
  const ResolveResult r = resolve(path);
  m.components = r.components;
  if (r.status != OpStatus::kOk) {
    m.status = r.status;
    return m;
  }
  if (r.inode == kRootInode) {
    m.status = OpStatus::kIsDirectory;  // cannot remove the subtree root
    return m;
  }
  Inode* victim = find(r.inode);
  ANUFS_ENSURES(victim != nullptr);
  if (victim->attrs.type == FileType::kDirectory &&
      !victim->entries.empty()) {
    m.status = OpStatus::kNotEmpty;
    return m;
  }
  Inode* parent = find(r.parent);
  ANUFS_ENSURES(parent != nullptr);
  parent->entries.erase(r.leaf);
  parent->attrs.mtime += 1;
  inodes_.erase(r.inode);
  m.status = OpStatus::kOk;
  m.inode = r.inode;
  return m;
}

NamespaceTree::MutateResult NamespaceTree::rename(std::string_view from,
                                                  std::string_view to) {
  MutateResult m;
  const ResolveResult src = resolve(from);
  m.components = src.components;
  if (src.status != OpStatus::kOk) {
    m.status = src.status;
    return m;
  }
  if (src.inode == kRootInode) {
    m.status = OpStatus::kIsDirectory;
    return m;
  }
  const ResolveResult dst = resolve(to);
  m.components += dst.components;
  if (dst.status == OpStatus::kOk) {
    m.status = OpStatus::kExists;
    return m;
  }
  if (dst.status != OpStatus::kNotFound) {
    m.status = dst.status;
    return m;
  }
  const std::vector<std::string_view> to_parts = split_path(to);
  if (dst.components != to_parts.size()) {
    m.status = OpStatus::kNotFound;  // intermediate target dir missing
    return m;
  }
  // Refuse to move a directory into its own subtree: walk up from the
  // destination parent.
  if (find(src.inode)->attrs.type == FileType::kDirectory) {
    // Simple containment check via exhaustive descent from src.
    std::vector<InodeId> stack{src.inode};
    while (!stack.empty()) {
      const InodeId cur = stack.back();
      stack.pop_back();
      if (cur == dst.parent) {
        m.status = OpStatus::kNotDirectory;  // closest errno analogue
        return m;
      }
      for (const auto& [name, child] : find(cur)->entries) {
        stack.push_back(child);
      }
    }
  }
  Inode* src_parent = find(src.parent);
  Inode* dst_parent = find(dst.parent);
  ANUFS_ENSURES(src_parent != nullptr && dst_parent != nullptr);
  src_parent->entries.erase(src.leaf);
  src_parent->attrs.mtime += 1;
  dst_parent->entries.emplace(dst.leaf, src.inode);
  dst_parent->attrs.mtime += 1;
  m.status = OpStatus::kOk;
  m.inode = src.inode;
  return m;
}

NamespaceTree::MutateResult NamespaceTree::set_attr(std::string_view path,
                                                    std::uint64_t size,
                                                    std::uint64_t mtime) {
  MutateResult m;
  const ResolveResult r = resolve(path);
  m.components = r.components;
  if (r.status != OpStatus::kOk) {
    m.status = r.status;
    return m;
  }
  Inode* node = find(r.inode);
  ANUFS_ENSURES(node != nullptr);
  if (node->attrs.type == FileType::kDirectory) {
    m.status = OpStatus::kIsDirectory;
    return m;
  }
  node->attrs.size = size;
  node->attrs.mtime = mtime;
  m.status = OpStatus::kOk;
  m.inode = r.inode;
  return m;
}

void NamespaceTree::serialize(std::ostream& os) const {
  os << "# anufs-namespace v1\n";
  os << "next " << next_inode_ << "\n";
  // Deterministic: id-sorted inodes, then name-sorted entries per dir.
  std::vector<InodeId> ids;
  ids.reserve(inodes_.size());
  // anufs-lint: safe(D1) collect-then-sort: ids are sorted immediately
  // below, so the serialized order never depends on hash layout.
  for (const auto& [id, node] : inodes_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (const InodeId id : ids) {
    const Inode& node = inodes_.at(id);
    os << "inode " << id.value << ' '
       << (node.attrs.type == FileType::kDirectory ? 'd' : 'f') << ' '
       << node.attrs.size << ' ' << node.attrs.mtime << ' '
       << node.attrs.nlink << "\n";
  }
  for (const InodeId id : ids) {
    const Inode& node = inodes_.at(id);
    for (const auto& [name, child] : node.entries) {
      // Names are tokens (no whitespace, no '#') by construction.
      ANUFS_EXPECTS(name.find_first_of(" \t\n#") == std::string::npos);
      os << "entry " << id.value << ' ' << name << ' ' << child.value
         << "\n";
    }
  }
}

NamespaceTree NamespaceTree::deserialize(std::istream& is) {
  NamespaceTree tree;
  tree.inodes_.clear();  // the parsed root replaces the default one
  std::string magic;
  const bool has_magic = static_cast<bool>(std::getline(is, magic)) &&
                         magic.rfind("# anufs-namespace v1", 0) == 0;
  LineReader in(is, "anufs-namespace", "<namespace>", /*lines_read=*/1);
  if (!has_magic) in.fail("missing '# anufs-namespace v1' magic");
  while (in.next()) {
    const std::string kind = in.word("record kind");
    if (kind == "next") {
      tree.next_inode_ = in.u64("next inode");
    } else if (kind == "inode") {
      const InodeId id{in.u64("inode id")};
      const std::string type = in.word("inode type");
      if (type != "f" && type != "d") in.fail("bad inode type '" + type + "'");
      Inode node;
      node.attrs.type = type == "d" ? FileType::kDirectory : FileType::kFile;
      node.attrs.size = in.u64("size");
      node.attrs.mtime = in.u64("mtime");
      node.attrs.nlink = in.u32("nlink");
      if (!tree.inodes_.emplace(id, std::move(node)).second) {
        in.fail("duplicate inode");
      }
    } else if (kind == "entry") {
      Inode* parent = tree.find(InodeId{in.u64("directory inode")});
      std::string name = in.word("entry name");
      const InodeId child{in.u64("child inode")};
      if (parent == nullptr ||
          parent->attrs.type != FileType::kDirectory ||
          !tree.inodes_.contains(child)) {
        in.fail("entry references missing inode");
      }
      if (!parent->entries.emplace(std::move(name), child).second) {
        in.fail("duplicate entry");
      }
    } else {
      in.fail("unknown record kind '" + kind + "'");
    }
    in.end();
  }
  if (!tree.inodes_.contains(kRootInode)) in.fail("missing root inode");
  tree.check_consistency();
  return tree;
}

void NamespaceTree::check_consistency() const {
  // Every directory entry references a live inode; every non-root inode
  // is referenced exactly once (no hard links in this model).
  std::unordered_map<InodeId, std::uint32_t> refs;
  // anufs-lint: safe(D1) order-independent: builds a refcount map and
  // checks it with aborting ENSURES; no output depends on visit order.
  for (const auto& [id, node] : inodes_) {
    for (const auto& [name, child] : node.entries) {
      ANUFS_ENSURES(node.attrs.type == FileType::kDirectory);
      ANUFS_ENSURES(inodes_.contains(child));
      ++refs[child];
    }
  }
  // anufs-lint: safe(D1) order-independent: per-inode aborting checks.
  for (const auto& [id, node] : inodes_) {
    if (id == kRootInode) {
      ANUFS_ENSURES(refs[id] == 0);
    } else {
      ANUFS_ENSURES(refs[id] == 1);
    }
  }
}

}  // namespace anufs::fsmeta
