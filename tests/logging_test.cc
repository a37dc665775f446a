/**
 * @file
 * Unit tests for the swappable warn sink.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace pc {
namespace {

/** Installs a capturing sink for the test's lifetime, then restores. */
class SinkCapture
{
  public:
    SinkCapture()
    {
        prev_ = setLogSink(
            [this](const std::string &msg) { messages_.push_back(msg); });
    }

    ~SinkCapture() { setLogSink(std::move(prev_)); }

    const std::vector<std::string> &messages() const { return messages_; }

  private:
    LogSink prev_;
    std::vector<std::string> messages_;
};

TEST(Logging, SinkCapturesWarn)
{
    SinkCapture cap;
    pc_warn("w ", 1);
    pc_warn("second");
    ASSERT_EQ(cap.messages().size(), 2u);
    EXPECT_EQ(cap.messages()[0], "w 1");
    EXPECT_EQ(cap.messages()[1], "second");
}

TEST(Logging, SetLogSinkReturnsPrevious)
{
    std::vector<std::string> first;
    LogSink prev = setLogSink([&](const std::string &msg) {
        first.push_back(msg);
    });
    pc_warn("to-first");

    // Swap in a second sink; the returned previous one is the first.
    std::vector<std::string> second;
    LogSink firstSink = setLogSink([&](const std::string &msg) {
        second.push_back(msg);
    });
    pc_warn("to-second");
    ASSERT_TRUE(firstSink);
    firstSink("direct");

    setLogSink(std::move(prev)); // restore default before leaving
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first[0], "to-first");
    EXPECT_EQ(first[1], "direct");
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0], "to-second");
}

} // namespace
} // namespace pc
