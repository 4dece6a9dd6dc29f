#include "util/log.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/flightrec.hpp"

namespace hublab::log {
namespace {

/// Swap the global logger's sink to a local stringstream for one test and
/// restore stderr afterwards.
class SinkCapture {
 public:
  SinkCapture() {
    logger().set_sink(&buffer_);
    logger().set_level(Level::kInfo);
  }
  ~SinkCapture() {
    logger().set_sink(nullptr);
    logger().set_level(Level::kInfo);
  }
  [[nodiscard]] std::string text() const { return buffer_.str(); }

 private:
  std::ostringstream buffer_;
};

TEST(Level, NamesAndOrdering) {
  EXPECT_EQ(level_name(Level::kTrace), "trace");
  EXPECT_EQ(level_name(Level::kDebug), "debug");
  EXPECT_EQ(level_name(Level::kInfo), "info");
  EXPECT_EQ(level_name(Level::kWarn), "warn");
  EXPECT_EQ(level_name(Level::kError), "error");
  EXPECT_EQ(level_name(Level::kOff), "off");
  EXPECT_LT(static_cast<int>(Level::kTrace), static_cast<int>(Level::kError));
}

TEST(Logger, LevelFiltering) {
  SinkCapture capture;
  logger().set_level(Level::kWarn);
  EXPECT_FALSE(logger().enabled(Level::kInfo));
  EXPECT_TRUE(logger().enabled(Level::kWarn));
  EXPECT_TRUE(logger().enabled(Level::kError));

  logger().write(Level::kInfo, "test", "dropped");
  logger().write(Level::kWarn, "test", "kept warn");
  logger().write(Level::kError, "test", "kept error");
  const std::string out = capture.text();
  EXPECT_EQ(out.find("dropped"), std::string::npos);
  EXPECT_NE(out.find("kept warn"), std::string::npos);
  EXPECT_NE(out.find("kept error"), std::string::npos);
}

TEST(Logger, OffLevelSilencesEverything) {
  SinkCapture capture;
  logger().set_level(Level::kOff);
  logger().write(Level::kError, "test", "still dropped");
  EXPECT_EQ(capture.text(), "");
}

TEST(Logger, TextFormatIsLogfmt) {
  SinkCapture capture;
  logger().write(Level::kInfo, "serve", "oracle built",
                 {Field("oracle", "pll"), Field("queries", std::uint64_t{42}),
                  Field("ok", true), Field("ratio", 0.5), Field("tag", "a\nb")});
  const std::string out = capture.text();
  EXPECT_NE(out.find("level=info"), std::string::npos);
  EXPECT_NE(out.find("component=serve"), std::string::npos);
  EXPECT_NE(out.find("msg=\"oracle built\""), std::string::npos);
  EXPECT_NE(out.find("oracle=\"pll\""), std::string::npos);
  EXPECT_NE(out.find("queries=42"), std::string::npos);
  EXPECT_NE(out.find("ok=true"), std::string::npos);
  EXPECT_NE(out.find("ratio=0.5"), std::string::npos);
  EXPECT_NE(out.find("tag=\"a\\nb\""), std::string::npos);  // escaped, not a line break
  EXPECT_EQ(out.find('\n'), out.size() - 1);                // one record, one line
}

TEST(Logger, NegativeAndSignedFields) {
  SinkCapture capture;
  logger().write(Level::kInfo, "t", "m",
                 {Field("i", -3), Field("j", std::int64_t{-9000000000LL})});
  const std::string out = capture.text();
  EXPECT_NE(out.find("i=-3"), std::string::npos);
  EXPECT_NE(out.find("j=-9000000000"), std::string::npos);
}

TEST(Logger, RecordsWrittenCountsPostFilter) {
  SinkCapture capture;
  const std::uint64_t before = logger().records_written();
  logger().write(Level::kDebug, "t", "filtered");  // below kInfo
  logger().write(Level::kInfo, "t", "written");
  EXPECT_EQ(logger().records_written(), before + 1);
}

TEST(Logger, NullSinkDropsOutputSafely) {
  logger().set_sink(nullptr);
  logger().write(Level::kError, "t", "nowhere");  // must not crash
  logger().set_sink(nullptr);
  SinkCapture capture;  // restore a sane sink for the remaining tests
}

TEST(Macros, RuntimeFilterGatesInfoAndWarn) {
  SinkCapture capture;
  HUBLAB_LOG_INFO("macro", "info msg");
  HUBLAB_LOG_WARN("macro", "warn msg", log::Field("code", 7));
  logger().set_level(Level::kWarn);
  HUBLAB_LOG_INFO("macro", "filtered msg");
  const std::string out = capture.text();
  for (const char* needle : {"level=info", "info msg", "level=warn", "warn msg", "code=7"}) {
    EXPECT_NE(out.find(needle), std::string::npos) << needle;
  }
  EXPECT_EQ(out.find("filtered msg"), std::string::npos);
}

TEST(Logger, EmittedRecordsLeaveAFlightRecorderBreadcrumb) {
  {
    SinkCapture capture;
    logger().write(Level::kWarn, "test", "crumb-kept-5f3a");
    logger().write(Level::kDebug, "test", "crumb-below-level-5f3a");
  }
  logger().set_sink(nullptr);
  logger().write(Level::kError, "test", "crumb-null-sink-5f3a");
  std::ostringstream dump;
  fr::dump(dump);
  const std::string ring = dump.str();
  EXPECT_NE(ring.find("log 3 crumb-kept-5f3a"), std::string::npos) << ring;
  EXPECT_EQ(ring.find("crumb-below-level-5f3a"), std::string::npos) << ring;
  EXPECT_EQ(ring.find("crumb-null-sink-5f3a"), std::string::npos) << ring;
}

}  // namespace
}  // namespace hublab::log
