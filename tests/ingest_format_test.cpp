// Validating container parsers (ingest/raw.h, mjpeg.h, gif.h) plus the
// registry and quarantine: every IngestErrorKind each format can raise is
// provoked here by a handcrafted byte-level patch, and the split between
// eager structural validation (at open) and lazy payload validation (at
// decode) is pinned down — the serving layer relies on it to see
// mid-stream malformed bursts rather than a failed open.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "ingest/error.h"
#include "ingest/gif.h"
#include "ingest/mjpeg.h"
#include "ingest/quarantine.h"
#include "ingest/raw.h"
#include "ingest/registry.h"
#include "video/trailer.h"

namespace fdet::ingest {
namespace {

// Small synthetic footage shared by every case; geometry matches the
// fuzz harness so the wire offsets below are the same ones the committed
// corpus patches (tools/fdet_fuzz.cpp --write-corpus).
video::SyntheticTrailer test_trailer() {
  video::TrailerSpec spec;
  spec.title = "format-test";
  spec.width = 64;
  spec.height = 48;
  spec.frames = 4;
  spec.fps = 24.0;
  spec.shot_frames = 2;
  spec.seed = 0xf00d;
  return video::SyntheticTrailer(spec);
}

std::string stream_of(Format format) {
  return encode_stream(format, test_trailer());
}

std::string patch(std::string bytes, std::size_t offset, char value) {
  bytes.at(offset) = value;
  return bytes;
}

std::string patch_u32(std::string bytes, std::size_t offset,
                      std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes.at(offset + static_cast<std::size_t>(i)) =
        static_cast<char>((value >> (8 * i)) & 0xff);
  }
  return bytes;
}

IngestErrorKind open_rejects(std::string bytes) {
  try {
    open_stream(std::move(bytes));
  } catch (const IngestError& error) {
    return error.kind();
  }
  ADD_FAILURE() << "stream unexpectedly opened clean";
  return IngestErrorKind::kUnsupported;
}

// ---- shared header validation (same 20-byte layout in all formats) ----

class SharedHeader : public ::testing::TestWithParam<Format> {};

TEST_P(SharedHeader, CorruptMagicIsBadMagic) {
  EXPECT_EQ(open_rejects(patch(stream_of(GetParam()), 0, 'Z')),
            IngestErrorKind::kBadMagic);
}

TEST_P(SharedHeader, UnknownVersionIsBadVersion) {
  EXPECT_EQ(open_rejects(patch(stream_of(GetParam()), 3, '9')),
            IngestErrorKind::kBadVersion);
}

TEST_P(SharedHeader, OddWidthIsDimensionOverflow) {
  EXPECT_EQ(open_rejects(patch_u32(stream_of(GetParam()), 4, 63)),
            IngestErrorKind::kDimensionOverflow);
}

TEST_P(SharedHeader, AboveCapWidthIsDimensionOverflowBeforeAllocation) {
  // 2^30 pixels wide: a parser that allocated from the header would try
  // to reserve gigabytes here. The cap check must come first.
  EXPECT_EQ(open_rejects(patch_u32(stream_of(GetParam()), 4, 1u << 30)),
            IngestErrorKind::kDimensionOverflow);
}

TEST_P(SharedHeader, AbsurdFrameCountIsTyped) {
  EXPECT_EQ(open_rejects(patch_u32(stream_of(GetParam()), 12, 1u << 30)),
            IngestErrorKind::kAbsurdMetadata);
}

TEST_P(SharedHeader, TruncatedTailIsTyped) {
  std::string bytes = stream_of(GetParam());
  bytes.resize(bytes.size() - 7);
  EXPECT_EQ(open_rejects(std::move(bytes)), IngestErrorKind::kTruncated);
}

TEST_P(SharedHeader, TrailingGarbageIsTyped) {
  EXPECT_EQ(open_rejects(stream_of(GetParam()) + "EXTRA"),
            IngestErrorKind::kTrailingGarbage);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, SharedHeader,
                         ::testing::ValuesIn(kAllFormats),
                         [](const auto& test) {
                           return std::string(format_name(test.param));
                         });

// ---- per-format payload validation (lazy, at decode) ----

TEST(RawFormat, FlippedPayloadByteOpensCleanThenFailsChecksumAtDecode) {
  // Frame 0 payload starts at 24 (20-byte header + u32 crc). Structural
  // validation cannot see the flip; the per-frame CRC at decode must.
  std::string bytes = stream_of(Format::kRaw);
  bytes[24 + 100] = static_cast<char>(bytes[24 + 100] ^ 0x5a);
  const auto source = open_stream(std::move(bytes));  // eager checks all pass
  try {
    source->decode(0);
    FAIL() << "expected IngestError";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.kind(), IngestErrorKind::kChecksumMismatch);
    EXPECT_EQ(error.format(), "raw");
  }
  // Other frames are untouched and still decode.
  EXPECT_NO_THROW(source->decode(1));
}

TEST(MjpegFormat, ZeroRleCountOpensCleanThenFailsPlaneSizeAtDecode) {
  // Frame 0 RLE starts at 26 (header + SOI + u32 rle_len); a zero count
  // byte can never expand to the declared plane sizes.
  const auto source =
      open_stream(patch(stream_of(Format::kMjpeg), 26, '\0'));
  try {
    source->decode(0);
    FAIL() << "expected IngestError";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.kind(), IngestErrorKind::kPlaneSizeMismatch);
    EXPECT_EQ(error.format(), "mjpeg");
  }
  EXPECT_NO_THROW(source->decode(1));
}

TEST(MjpegFormat, RleLengthBeyondWorstCaseBoundIsAbsurdMetadata) {
  // rle_len is capped at 2x the plane total (the worst-case RLE size);
  // a declared length past that is rejected before any buffer work.
  EXPECT_EQ(open_rejects(patch_u32(stream_of(Format::kMjpeg), 22, 1u << 28)),
            IngestErrorKind::kAbsurdMetadata);
}

TEST(GifFormat, OutOfPaletteIndexOpensCleanThenFailsAtDecode) {
  // Keyframe pixels start at 89 (header + u8 palette_size + 64-entry
  // palette + u32 count); the encoder's palette has 64 levels, so 0xff
  // indexes far past it.
  const auto source =
      open_stream(patch(stream_of(Format::kGif), 89 + 5, '\xff'));
  try {
    source->decode(0);
    FAIL() << "expected IngestError";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.kind(), IngestErrorKind::kPaletteOverflow);
    EXPECT_EQ(error.format(), "gif");
  }
}

TEST(GifFormat, DeltaRectEscapingCanvasIsRejectedAtOpen) {
  // The first delta frame's sub-rect header follows the keyframe's
  // 64x48 indices; forcing its x coordinate far right pushes the rect
  // outside the canvas.
  EXPECT_EQ(open_rejects(patch(stream_of(Format::kGif), 89 + 64 * 48,
                               '\xff')),
            IngestErrorKind::kBadSubRect);
}

TEST(GifFormat, EmptyPaletteIsAbsurdMetadata) {
  EXPECT_EQ(open_rejects(patch(stream_of(Format::kGif), 20, '\0')),
            IngestErrorKind::kAbsurdMetadata);
}

// ---- registry ----

TEST(Registry, FormatNamesRoundTrip) {
  for (const Format format : kAllFormats) {
    EXPECT_EQ(parse_format(format_name(format)), format);
  }
}

TEST(Registry, UnknownFormatNameListsTheKnownOnes) {
  try {
    parse_format("avi");
    FAIL() << "expected IngestError";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.kind(), IngestErrorKind::kUnsupported);
    const std::string what = error.what();
    EXPECT_NE(what.find("raw"), std::string::npos) << what;
    EXPECT_NE(what.find("mjpeg"), std::string::npos) << what;
    EXPECT_NE(what.find("gif"), std::string::npos) << what;
  }
}

TEST(Registry, SniffingRejectsUnclaimedMagic) {
  EXPECT_EQ(open_rejects("RIFFxxxxWAVE"), IngestErrorKind::kBadMagic);
  EXPECT_EQ(open_rejects(""), IngestErrorKind::kBadMagic);
}

TEST(Registry, SniffingDispatchesEachFormatToItsParser) {
  for (const Format format : kAllFormats) {
    const auto source = open_stream(stream_of(format));
    EXPECT_EQ(source->info().format, format_name(format));
    EXPECT_EQ(source->frame_count(), 4);
  }
}

// ---- quarantine ----

TEST(Quarantine, RecordsRejectionAndRethrowsTyped) {
  StreamQuarantine quarantine;
  EXPECT_THROW(
      quarantine.open_or_quarantine(patch(stream_of(Format::kRaw), 0, 'Z'),
                                    "cam-3"),
      IngestError);
  ASSERT_EQ(quarantine.records().size(), 1u);
  const QuarantineRecord& record = quarantine.records().front();
  EXPECT_EQ(record.name, "cam-3");
  EXPECT_EQ(record.kind, IngestErrorKind::kBadMagic);
  EXPECT_GT(record.byte_count, 0u);
  EXPECT_TRUE(record.dump_path.empty());  // no dump dir configured
  EXPECT_EQ(quarantine.total_rejected(), 1u);
}

TEST(Quarantine, CleanStreamPassesThroughUnrecorded) {
  StreamQuarantine quarantine;
  const auto source =
      quarantine.open_or_quarantine(stream_of(Format::kMjpeg), "ok");
  EXPECT_EQ(source->info().format, "mjpeg");
  EXPECT_TRUE(quarantine.records().empty());
}

TEST(Quarantine, DumpsRejectedBytesForTriage) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "fdet_ingest_quarantine").string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  StreamQuarantine quarantine(dir);
  const std::string bytes = patch(stream_of(Format::kGif), 3, '9');
  EXPECT_THROW(quarantine.open_or_quarantine(bytes, "feed/7"), IngestError);
  ASSERT_EQ(quarantine.records().size(), 1u);
  const std::string& dump = quarantine.records().front().dump_path;
  ASSERT_FALSE(dump.empty());
  EXPECT_TRUE(fs::exists(dump)) << dump;
  EXPECT_EQ(fs::file_size(dump), bytes.size());
  fs::remove_all(dir);
}

TEST(Quarantine, StoreStaysBoundedUnderFlood) {
  StreamQuarantine quarantine("", /*max_records=*/3);
  for (int i = 0; i < 10; ++i) {
    EXPECT_THROW(
        quarantine.open_or_quarantine(patch(stream_of(Format::kRaw), 0, 'Z'),
                                      "flood-" + std::to_string(i)),
        IngestError);
  }
  EXPECT_EQ(quarantine.records().size(), 3u);
  EXPECT_EQ(quarantine.total_rejected(), 10u);
  // Oldest dropped first: the survivors are the three newest.
  EXPECT_EQ(quarantine.records().front().name, "flood-7");
  EXPECT_EQ(quarantine.records().back().name, "flood-9");
}

}  // namespace
}  // namespace fdet::ingest
