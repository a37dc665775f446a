/**
 * @file
 * Unit tests for the OS isolation layer over cloudlet storage
 * (Section 7's security requirement).
 */

#include <gtest/gtest.h>

#include "simfs/protected_store.h"

namespace pc::simfs {
namespace {

pc::nvm::FlashConfig
deviceConfig()
{
    pc::nvm::FlashConfig cfg;
    cfg.capacity = 64 * kMiB;
    return cfg;
}

class ProtectedStoreTest : public ::testing::Test
{
  protected:
    ProtectedStoreTest()
        : device_(deviceConfig()), raw_(device_), os_(raw_)
    {
        bank_ = os_.registerNamespace("bank");
        maps_ = os_.registerNamespace("maps");
    }

    pc::nvm::FlashDevice device_;
    FlashStore raw_;
    ProtectedStore os_;
    Grant bank_ = kNoGrant;
    Grant maps_ = kNoGrant;
};

TEST_F(ProtectedStoreTest, OwnNamespaceWorksEndToEnd)
{
    FileId id = kNoFile;
    ASSERT_EQ(os_.create(bank_, "transactions", id), Access::Ok);
    SimTime t = 0;
    ASSERT_EQ(os_.append(bank_, id, "acct 1234: -$50", t), Access::Ok);

    FileId opened = kNoFile;
    ASSERT_EQ(os_.open(bank_, "transactions", opened, t), Access::Ok);
    EXPECT_EQ(opened, id);

    std::string out;
    Bytes got = 0;
    ASSERT_EQ(os_.read(bank_, id, 0, 100, out, got, t), Access::Ok);
    EXPECT_EQ(out, "acct 1234: -$50");
    EXPECT_EQ(os_.violations(), 0u);
}

TEST_F(ProtectedStoreTest, CrossCloudletReadDenied)
{
    // The paper's example: "a map cloudlet shouldn't be allowed to
    // access information regarding a user's recent bank transactions".
    FileId id = kNoFile;
    os_.create(bank_, "transactions", id);
    SimTime t = 0;
    os_.append(bank_, id, "secret", t);

    std::string out;
    Bytes got = 0;
    EXPECT_EQ(os_.read(maps_, id, 0, 100, out, got, t), Access::Denied);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(os_.violations(), 1u);
}

TEST_F(ProtectedStoreTest, CrossCloudletOpenByNameCannotEscape)
{
    FileId id = kNoFile;
    os_.create(bank_, "transactions", id);
    SimTime t = 0;
    // Even a crafted path stays inside the caller's namespace.
    FileId stolen = kNoFile;
    EXPECT_NE(os_.open(maps_, "bank/transactions", stolen, t),
              Access::Ok);
    EXPECT_EQ(stolen, kNoFile);
}

TEST_F(ProtectedStoreTest, CrossCloudletWriteAndRemoveDenied)
{
    FileId id = kNoFile;
    os_.create(bank_, "transactions", id);
    SimTime t = 0;
    EXPECT_EQ(os_.append(maps_, id, "graffiti", t), Access::Denied);
    EXPECT_EQ(os_.remove(maps_, id, t), Access::Denied);
    EXPECT_TRUE(raw_.valid(id)) << "the file must survive the attempt";
}

TEST_F(ProtectedStoreTest, OwnerRemoveChargesErases)
{
    FileId id = kNoFile;
    os_.create(bank_, "transactions", id);
    SimTime t = 0;
    ASSERT_EQ(os_.append(bank_, id, std::string(10000, 'x'), t), Access::Ok);
    SimTime removeTime = 0;
    EXPECT_EQ(os_.remove(bank_, id, removeTime), Access::Ok);
    EXPECT_FALSE(raw_.valid(id));
    EXPECT_GT(removeTime, 0) << "freed blocks pay their erases";
}

TEST_F(ProtectedStoreTest, RevokedGrantFails)
{
    FileId id = kNoFile;
    os_.create(maps_, "tiles", id);
    EXPECT_TRUE(os_.revoke(maps_));
    EXPECT_FALSE(os_.revoke(maps_)) << "double revoke";
    SimTime t = 0;
    EXPECT_EQ(os_.append(maps_, id, "x", t), Access::BadGrant);
    FileId opened = kNoFile;
    EXPECT_EQ(os_.open(maps_, "tiles", opened, t), Access::BadGrant);
}

TEST_F(ProtectedStoreTest, UnknownGrantFails)
{
    FileId id = kNoFile;
    EXPECT_EQ(os_.create(0xdeadbeef, "x", id), Access::BadGrant);
    EXPECT_GT(os_.violations(), 0u);
}

TEST_F(ProtectedStoreTest, DuplicateNamespaceRejected)
{
    EXPECT_EQ(os_.registerNamespace("bank"), kNoGrant);
    EXPECT_NE(os_.registerNamespace("ads"), kNoGrant);
}

TEST_F(ProtectedStoreTest, NamespaceBytesAccounting)
{
    FileId a = kNoFile, b = kNoFile;
    os_.create(bank_, "a", a);
    os_.create(maps_, "b", b);
    SimTime t = 0;
    os_.append(bank_, a, std::string(10000, 'x'), t);
    os_.append(maps_, b, std::string(100, 'y'), t);
    EXPECT_GT(os_.namespaceBytes("bank"), os_.namespaceBytes("maps"));
    EXPECT_EQ(os_.namespaceBytes("nothing"), 0u);
}

TEST_F(ProtectedStoreTest, SameNameDifferentNamespacesCoexist)
{
    FileId a = kNoFile, b = kNoFile;
    ASSERT_EQ(os_.create(bank_, "index", a), Access::Ok);
    ASSERT_EQ(os_.create(maps_, "index", b), Access::Ok);
    EXPECT_NE(a, b);
    SimTime t = 0;
    os_.append(bank_, a, "bank-idx", t);
    os_.append(maps_, b, "maps-idx", t);
    std::string out;
    Bytes got = 0;
    os_.read(maps_, b, 0, 100, out, got, t);
    EXPECT_EQ(out, "maps-idx");
}

} // namespace
} // namespace pc::simfs
