#include "simfs/protected_store.h"

#include "util/hash.h"
#include "util/logging.h"
#include "util/strings.h"

namespace pc::simfs {

std::string
ProtectedStore::qualify(const std::string &ns, const std::string &name)
{
    return ns + "/" + name;
}

Grant
ProtectedStore::registerNamespace(const std::string &ns)
{
    pc_assert(!ns.empty() && ns.find('/') == std::string::npos,
              "namespace must be a single non-empty path segment");
    if (byNamespace_.count(ns))
        return kNoGrant;
    // Grants are unguessable in spirit; mix a counter for uniqueness.
    const Grant g = mix64(nextGrant_++ ^ fnv1a(ns)) | 1;
    grants_[g] = GrantInfo{ns, false};
    byNamespace_[ns] = g;
    return g;
}

bool
ProtectedStore::revoke(Grant grant)
{
    auto it = grants_.find(grant);
    if (it == grants_.end() || it->second.revoked)
        return false;
    it->second.revoked = true;
    return true;
}

const ProtectedStore::GrantInfo *
ProtectedStore::lookupGrant(Grant grant) const
{
    const auto it = grants_.find(grant);
    if (it == grants_.end() || it->second.revoked)
        return nullptr;
    return &it->second;
}

bool
ProtectedStore::owns(const GrantInfo &g, FileId id) const
{
    const auto it = owner_.find(id);
    if (it == owner_.end())
        return false;
    const GrantInfo *o = lookupGrant(it->second);
    return o && o->ns == g.ns;
}

Access
ProtectedStore::create(Grant grant, const std::string &name, FileId &id)
{
    const GrantInfo *g = lookupGrant(grant);
    if (!g) {
        ++violations_;
        return Access::BadGrant;
    }
    id = store_.create(qualify(g->ns, name));
    owner_[id] = grant;
    return Access::Ok;
}

Access
ProtectedStore::open(Grant grant, const std::string &name, FileId &id,
                     SimTime &time)
{
    const GrantInfo *g = lookupGrant(grant);
    if (!g) {
        ++violations_;
        return Access::BadGrant;
    }
    // Names are resolved inside the caller's namespace only; a crafted
    // "other-ns/secret" name cannot escape because it qualifies to
    // "<my-ns>/other-ns/secret".
    id = store_.open(qualify(g->ns, name), time);
    if (id == kNoFile)
        return Access::Denied;
    if (!owns(*g, id)) {
        ++violations_;
        id = kNoFile;
        return Access::Denied;
    }
    return Access::Ok;
}

Access
ProtectedStore::append(Grant grant, FileId id, std::string_view data,
                       SimTime &time)
{
    const GrantInfo *g = lookupGrant(grant);
    if (!g) {
        ++violations_;
        return Access::BadGrant;
    }
    if (!owns(*g, id)) {
        ++violations_;
        return Access::Denied;
    }
    store_.append(id, data, time);
    return Access::Ok;
}

Access
ProtectedStore::read(Grant grant, FileId id, Bytes offset, Bytes len,
                     std::string &out, Bytes &got, SimTime &time)
{
    const GrantInfo *g = lookupGrant(grant);
    if (!g) {
        ++violations_;
        return Access::BadGrant;
    }
    if (!owns(*g, id)) {
        ++violations_;
        return Access::Denied;
    }
    got = store_.read(id, offset, len, out, time);
    return Access::Ok;
}

Access
ProtectedStore::remove(Grant grant, FileId id, SimTime &time)
{
    const GrantInfo *g = lookupGrant(grant);
    if (!g) {
        ++violations_;
        return Access::BadGrant;
    }
    if (!owns(*g, id)) {
        ++violations_;
        return Access::Denied;
    }
    store_.remove(id, time);
    owner_.erase(id);
    return Access::Ok;
}

Bytes
ProtectedStore::namespaceBytes(const std::string &ns) const
{
    Bytes total = 0;
    for (const auto &name : store_.listFiles()) {
        if (pc::startsWith(name, ns + "/")) {
            const FileId id = store_.lookup(name);
            if (id != kNoFile)
                total += store_.physicalSize(id);
        }
    }
    return total;
}

} // namespace pc::simfs
