/**
 * @file
 * OS-enforced cloudlet isolation over the flash store (Section 7).
 *
 * "Some cloudlets may include sensitive user and/or application data
 * in their caches. Consequently, other cloudlets should not be allowed
 * unrestricted access to those cache contents. [...] We envision the
 * operating system will provide such isolation and access control."
 *
 * ProtectedStore is that OS surface: each cloudlet registers a
 * namespace and receives an opaque grant; every file operation is
 * checked against the grant's namespace, so a maps cloudlet can never
 * open "bank_*" files. Enforcement is by namespace prefix on file
 * names — the same model real mobile OSes use for per-app storage
 * sandboxes.
 */

#ifndef PC_SIMFS_PROTECTED_STORE_H
#define PC_SIMFS_PROTECTED_STORE_H

#include <string>
#include <unordered_map>
#include <vector>

#include "simfs/flash_store.h"

namespace pc::simfs {

/** Opaque access grant handed to a cloudlet at registration. */
using Grant = u64;

/** Invalid grant. */
inline constexpr Grant kNoGrant = 0;

/** Result of a checked operation. */
enum class Access
{
    Ok,
    Denied,   ///< Name outside the grant's namespace.
    BadGrant, ///< Unknown or revoked grant.
};

/**
 * Namespace-enforcing facade over a FlashStore.
 */
class ProtectedStore
{
  public:
    /** @param store Backing store; must outlive this facade. */
    explicit ProtectedStore(FlashStore &store) : store_(store) {}

    /**
     * Register a cloudlet namespace ("search", "maps", ...). File
     * names under a grant are forced to "<ns>/<name>".
     * @return The grant, or kNoGrant if the namespace is taken.
     */
    Grant registerNamespace(const std::string &ns);

    /** Revoke a grant; subsequent operations fail with BadGrant. */
    bool revoke(Grant grant);

    /** Create a file inside the grant's namespace. */
    Access create(Grant grant, const std::string &name, FileId &id);

    /** Open a file; denied outside the namespace. */
    Access open(Grant grant, const std::string &name, FileId &id,
                SimTime &time);

    /** Append to an owned file. */
    Access append(Grant grant, FileId id, std::string_view data,
                  SimTime &time);

    /** Read from an owned file. */
    Access read(Grant grant, FileId id, Bytes offset, Bytes len,
                std::string &out, Bytes &got, SimTime &time);

    /** Remove an owned file (charges the freed blocks' erases). */
    Access remove(Grant grant, FileId id, SimTime &time);

    /** Bytes (physical) used by a namespace. */
    Bytes namespaceBytes(const std::string &ns) const;

    /** Denied/bad-grant attempts so far (audit counter). */
    u64 violations() const { return violations_; }

    /** The backing store (device-level accounting). */
    FlashStore &store() { return store_; }

  private:
    struct GrantInfo
    {
        std::string ns;
        bool revoked = false;
    };

    /** Full name of `name` under a namespace. */
    static std::string qualify(const std::string &ns,
                               const std::string &name);

    /** Grant lookup; nullptr when unknown/revoked. */
    const GrantInfo *lookupGrant(Grant grant) const;

    /** Does this grant own the file id? */
    bool owns(const GrantInfo &g, FileId id) const;

    FlashStore &store_;
    std::unordered_map<Grant, GrantInfo> grants_;
    std::unordered_map<std::string, Grant> byNamespace_;
    std::unordered_map<FileId, Grant> owner_;
    u64 nextGrant_ = 1;
    u64 violations_ = 0;
};

} // namespace pc::simfs

#endif // PC_SIMFS_PROTECTED_STORE_H
