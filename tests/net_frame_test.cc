// Wire-frame format tests: known-answer vectors pinning the on-the-wire
// byte layout, incremental decoding, and the corruption discipline the
// frame envelope inherits from snapshots (truncation, bit flips, version
// skew, hostile lengths — all clean Status errors, never crashes).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "net/batch_decode.h"
#include "net/messages.h"
#include "net/wire.h"
#include "util/envelope.h"
#include "util/random.h"

namespace implistat::net {
namespace {

std::string FromHex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    auto nibble = [](char c) -> int {
      return c <= '9' ? c - '0' : c - 'a' + 10;
    };
    bytes.push_back(
        static_cast<char>(nibble(hex[i]) * 16 + nibble(hex[i + 1])));
  }
  return bytes;
}

// Known-answer vectors: the exact bytes of two minimal frames. A change
// here is a wire-format break — deployed peers stop interoperating. The
// CRC trailers are Castagnoli CRC32C values over the envelope bytes.
// (Version byte 0x06 is kWireProtocolVersion. The envelope payload opens
// with a varint extension-block length — 0x00 when no trace context
// rides the frame — before the message payload.)
TEST(FrameKatTest, PingRequestBytes) {
  EXPECT_EQ(EncodeRequestFrame(MsgType::kPing, {}),
            FromHex("0c000000494d505706010100" "e265fdc8"));
}

TEST(FrameKatTest, QueryOkResponseBytes) {
  // Tag 0x83 = kQuery | kResponseFlag; payload = empty ext block, then
  // OK status header (code 0 varint, empty message).
  EXPECT_EQ(EncodeResponseFrame(MsgType::kQuery,
                                EncodeResponsePayload(Status::OK())),
            FromHex("0e000000494d5057068303000000" "c5feab58"));
}

// A sampled trace context rides as extension tag 1: 25 bytes of
// little-endian trace_hi, trace_lo, span_id, then the flags byte.
TEST(FrameKatTest, TracedPingRequestBytes) {
  obs::SpanContext trace;
  trace.trace_hi = 0x0123456789abcdefULL;
  trace.trace_lo = 0xfedcba9876543210ULL;
  trace.span_id = 0x1122334455667788ULL;
  trace.sampled = true;
  EXPECT_EQ(EncodeRequestFrame(MsgType::kPing, {}, trace),
            FromHex("27000000494d505706011c"
                    "1b0119"                  // ext_len, tag 1, entry len 25
                    "efcdab8967452301"        // trace_hi
                    "1032547698badcfe"        // trace_lo
                    "8877665544332211"        // span_id
                    "01"                      // flags: sampled
                    "5fba89ea"));
}

// A derived answer's midpoint, half-width, flag and bounds all survive
// the QUERY response codec.
TEST(FrameKatTest, QueryResponseDerivationSectionRoundTrips) {
  QueryResponse response;
  response.tuples_seen = 42;
  QueryResult result;
  result.id = 7;
  result.label = "tenant";
  result.estimator_name = "derived";
  result.estimate = 12.5;
  result.std_error = 2.5;
  result.derived = true;
  result.lower = 10.0;
  result.upper = 15.0;
  response.results.push_back(result);

  auto decoded = DecodeQueryResponse(EncodeQueryResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->results.size(), 1u);
  EXPECT_EQ(decoded->results[0].estimate, 12.5);
  EXPECT_EQ(decoded->results[0].std_error, 2.5);
  EXPECT_TRUE(decoded->results[0].derived);
  EXPECT_EQ(decoded->results[0].lower, 10.0);
  EXPECT_EQ(decoded->results[0].upper, 15.0);
}

TEST(FrameKatTest, QueryResponseBadDerivedFlagRejected) {
  QueryResponse response;
  QueryResult result;
  response.results.push_back(result);
  std::string body = EncodeQueryResponse(response);
  // The derived flag is the u8 before the two bound doubles and the
  // trailing empty-warnings varint.
  body[body.size() - 2 * sizeof(double) - 2] = 2;
  EXPECT_FALSE(DecodeQueryResponse(body).ok());
}

TEST(FrameKatTest, HeaderFieldsWhereDocumented) {
  const std::string frame = EncodeRequestFrame(MsgType::kPing, {});
  // Outer length prefix counts everything after itself.
  uint32_t outer;
  std::memcpy(&outer, frame.data(), sizeof(outer));
  EXPECT_EQ(outer, frame.size() - sizeof(uint32_t));
  // Magic "IMPW" little-endian at offset 4.
  EXPECT_EQ(frame.substr(4, 4), "IMPW");
  uint32_t magic;
  std::memcpy(&magic, frame.data() + 4, sizeof(magic));
  EXPECT_EQ(magic, kWireMagic);
  // Version varint, then the tag byte.
  EXPECT_EQ(frame[8], static_cast<char>(kWireProtocolVersion));
  EXPECT_EQ(frame[9], static_cast<char>(MsgType::kPing));
  // Envelope payload opens with the ext-block length (empty here).
  EXPECT_EQ(frame[11], 0);
  // Distinct from the snapshot magic: a frame can never pass for a file.
  EXPECT_NE(kWireMagic, kSnapshotMagic);
}

Frame DecodeOne(std::string_view bytes) {
  FrameDecoder decoder(1 << 20);
  EXPECT_TRUE(decoder.Append(bytes).ok());
  auto frame = decoder.Next();
  EXPECT_TRUE(frame.ok()) << frame.status();
  EXPECT_TRUE(frame->has_value());
  return **frame;
}

TEST(FrameDecoderTest, RoundTripsTagAndPayload) {
  const std::string payload = "payload bytes \x00\x7f\xff";
  Frame frame = DecodeOne(EncodeRequestFrame(MsgType::kMerge, payload));
  EXPECT_EQ(frame.type(), MsgType::kMerge);
  EXPECT_FALSE(frame.is_response());
  EXPECT_EQ(frame.payload, payload);

  Frame response = DecodeOne(EncodeResponseFrame(MsgType::kMerge, payload));
  EXPECT_EQ(response.type(), MsgType::kMerge);
  EXPECT_TRUE(response.is_response());
}

TEST(FrameDecoderTest, ByteAtATimeDelivery) {
  const std::string wire = EncodeRequestFrame(MsgType::kQuery, "abc") +
                           EncodeRequestFrame(MsgType::kPing, {});
  FrameDecoder decoder(1 << 20);
  std::vector<Frame> frames;
  for (char c : wire) {
    ASSERT_TRUE(decoder.Append(std::string_view(&c, 1)).ok());
    for (;;) {
      auto frame = decoder.Next();
      ASSERT_TRUE(frame.ok());
      if (!frame->has_value()) break;
      frames.push_back(**frame);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type(), MsgType::kQuery);
  EXPECT_EQ(frames[0].payload, "abc");
  EXPECT_EQ(frames[1].type(), MsgType::kPing);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoderTest, PipelinedFramesInOneAppend) {
  std::string wire;
  for (int i = 0; i < 50; ++i) {
    wire += EncodeRequestFrame(MsgType::kObserveBatch,
                               std::string(static_cast<size_t>(i), 'x'));
  }
  FrameDecoder decoder(1 << 20);
  ASSERT_TRUE(decoder.Append(wire).ok());
  for (int i = 0; i < 50; ++i) {
    auto frame = decoder.Next();
    ASSERT_TRUE(frame.ok());
    ASSERT_TRUE(frame->has_value());
    EXPECT_EQ((*frame)->payload.size(), static_cast<size_t>(i));
  }
  auto last = decoder.Next();
  ASSERT_TRUE(last.ok());
  EXPECT_FALSE(last->has_value());
}

TEST(FrameDecoderTest, EveryTruncationLeavesDecoderWaiting) {
  const std::string wire = EncodeRequestFrame(MsgType::kSnapshot, "payload");
  for (size_t len = 0; len < wire.size(); ++len) {
    FrameDecoder decoder(1 << 20);
    ASSERT_TRUE(decoder.Append(wire.substr(0, len)).ok());
    auto frame = decoder.Next();
    ASSERT_TRUE(frame.ok()) << "prefix of " << len << ": " << frame.status();
    EXPECT_FALSE(frame->has_value()) << "prefix of " << len << " decoded";
  }
}

TEST(FrameDecoderTest, EverySingleBitFlipRejectedAndSticky) {
  const std::string wire = EncodeRequestFrame(MsgType::kQuery, "payload");
  for (size_t byte = 4; byte < wire.size(); ++byte) {  // envelope part
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = wire;
      corrupted[byte] ^= static_cast<char>(1 << bit);
      FrameDecoder decoder(1 << 20);
      // A flip in the outer length prefix may just declare a longer
      // frame (still waiting) — flips inside the envelope must fail.
      ASSERT_TRUE(decoder.Append(corrupted).ok());
      auto frame = decoder.Next();
      EXPECT_FALSE(frame.ok())
          << "bit " << bit << " of byte " << byte << " flipped undetected";
      // Sticky: the connection is dead, good bytes cannot revive it.
      (void)decoder.Append(EncodeRequestFrame(MsgType::kPing, {}));
      EXPECT_FALSE(decoder.Next().ok());
    }
  }
}

TEST(FrameDecoderTest, OversizeDeclaredLengthFailsWithoutBuffering) {
  FrameDecoder decoder(1024);
  // Outer prefix claims 1 MiB; the decoder must refuse before any body
  // bytes arrive, not allocate and wait.
  const uint32_t huge = 1 << 20;
  std::string prefix(reinterpret_cast<const char*>(&huge), sizeof(huge));
  Status appended = decoder.Append(prefix);
  auto next = decoder.Next();
  EXPECT_TRUE(!appended.ok() || !next.ok());
  if (!next.ok()) {
    EXPECT_EQ(next.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(FrameDecoderTest, RandomGarbageNeverCrashes) {
  Rng rng(71);
  for (int iter = 0; iter < 500; ++iter) {
    FrameDecoder decoder(1 << 16);
    size_t len = rng.Uniform(400);
    std::string garbage;
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.Next64() & 0xff));
    }
    if (!decoder.Append(garbage).ok()) continue;
    // Drain until error or hungry; must terminate either way.
    for (;;) {
      auto frame = decoder.Next();
      if (!frame.ok() || !frame->has_value()) break;
    }
  }
}

TEST(FrameDecoderTest, SnapshotEnvelopeIsNotAFrame) {
  // Same discipline, different magic: feeding a (length-prefixed)
  // checkpoint snapshot to the frame decoder must fail on magic.
  std::string snapshot = WrapSnapshot(SnapshotKind::kNipsCi, "payload");
  const uint32_t len = static_cast<uint32_t>(snapshot.size());
  std::string wire(reinterpret_cast<const char*>(&len), sizeof(len));
  wire += snapshot;
  FrameDecoder decoder(1 << 20);
  ASSERT_TRUE(decoder.Append(wire).ok());
  auto frame = decoder.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("magic"), std::string_view::npos);
}

// ---------------------------------------------------------------------------
// Response payload: status header + body.
// ---------------------------------------------------------------------------

TEST(ResponsePayloadTest, RoundTripsStatusAndBody) {
  const std::string wire = EncodeResponsePayload(
      Status::InvalidArgument("bad width"), "body bytes");
  auto decoded = DecodeResponsePayload(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->first.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded->first.message(), "bad width");
  EXPECT_EQ(decoded->second, "body bytes");

  auto ok = DecodeResponsePayload(EncodeResponsePayload(Status::OK()));
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->first.ok());
  EXPECT_TRUE(ok->second.empty());
}

TEST(ResponsePayloadTest, UnknownStatusCodeRejected) {
  ByteWriter out;
  out.PutVarint64(200);  // far past kIOError
  out.PutLengthPrefixed("");
  EXPECT_FALSE(DecodeResponsePayload(out.Release()).ok());
}

// ---------------------------------------------------------------------------
// Message payload codecs under hostile input.
// ---------------------------------------------------------------------------

// OBSERVE_BATCH as the server decodes it: EncodeObserveBatchRequest on
// the client side, DecodeObserveBatchInto into a flat id buffer.
TEST(MessageCodecTest, ObserveBatchRoundTripsBothEncodings) {
  const Schema ids_schema({{"Source", 97}, {"Destination", 47}, {"Hour", 24}});
  ObserveBatchRequest ids;
  ids.encoding = ObserveEncoding::kIds;
  ids.width = 3;
  ids.ids = {1, 2, 3, 4, 5, 6};
  std::vector<ValueId> flat = {9};  // decoded rows append after these
  auto decoded = DecodeObserveBatchInto(EncodeObserveBatchRequest(ids),
                                        ids_schema, {}, &flat);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, 2u);
  EXPECT_EQ(flat, (std::vector<ValueId>{9, 1, 2, 3, 4, 5, 6}));

  // Value rows resolve through the server's dictionaries, one per column.
  std::vector<ValueDictionary> dicts(2);
  dicts[0].GetOrAdd("alpha");
  dicts[0].GetOrAdd("gamma");
  dicts[1].GetOrAdd("");
  dicts[1].GetOrAdd("beta");
  const Schema values_schema({{"Left", 0}, {"Right", 0}});
  ObserveBatchRequest values;
  values.encoding = ObserveEncoding::kValues;
  values.width = 2;
  values.values = {"alpha", "beta", "gamma", ""};
  flat.clear();
  auto decoded_values = DecodeObserveBatchInto(
      EncodeObserveBatchRequest(values), values_schema, dicts, &flat);
  ASSERT_TRUE(decoded_values.ok()) << decoded_values.status();
  EXPECT_EQ(*decoded_values, 2u);
  EXPECT_EQ(flat, (std::vector<ValueId>{0, 1, 1, 0}));
}

TEST(MessageCodecTest, HostileTupleCountRejectedBeforeAllocation) {
  // Forge a header declaring 2^50 tuples of width 4 with a tiny body.
  const Schema schema({{"A", 0}, {"B", 0}, {"C", 0}, {"D", 0}});
  ByteWriter out;
  out.PutU8(0);  // kIds
  out.PutVarint64(4);
  out.PutVarint64(uint64_t{1} << 50);
  out.PutVarint64(7);
  std::vector<ValueId> flat = {1, 2, 3};
  auto decoded = DecodeObserveBatchInto(out.Release(), schema, {}, &flat);
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(flat, (std::vector<ValueId>{1, 2, 3}));
}

TEST(MessageCodecTest, QueryResponseRoundTrips) {
  QueryResponse response;
  response.tuples_seen = 123456;
  response.results.push_back(
      {7, "SELECT ...", "NIPS/CI", 1234.5, 67.8, 4096});
  response.results.push_back({8, "", "Exact", 99.0, 0.0, 1 << 20});
  auto decoded = DecodeQueryResponse(EncodeQueryResponse(response));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->results.size(), 2u);
  EXPECT_EQ(decoded->tuples_seen, 123456u);
  EXPECT_EQ(decoded->results[0].label, "SELECT ...");
  EXPECT_DOUBLE_EQ(decoded->results[0].estimate, 1234.5);
  EXPECT_DOUBLE_EQ(decoded->results[0].std_error, 67.8);
  EXPECT_DOUBLE_EQ(decoded->results[1].std_error, 0.0);
}

TEST(MessageCodecTest, MergeRequestCarriesSnapshotVerbatim) {
  const std::string snapshot = WrapSnapshot(SnapshotKind::kNipsCi, "state");
  const std::string wire = EncodeMergeRequest(3, snapshot);
  auto decoded = DecodeMergeRequest(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->first, 3u);
  EXPECT_EQ(decoded->second, snapshot);
}

TEST(FrameDecoderTest, NextViewAliasesBufferAndMatchesNext) {
  FrameDecoder viewer(1u << 20);
  FrameDecoder copier(1u << 20);
  const std::string payload(1000, 'x');
  const std::string wire =
      EncodeRequestFrame(MsgType::kObserveBatch, payload);
  ASSERT_TRUE(viewer.Append(wire).ok());
  ASSERT_TRUE(copier.Append(wire).ok());

  auto view = viewer.NextView();
  auto frame = copier.Next();
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(view->has_value());
  ASSERT_TRUE(frame->has_value());
  EXPECT_EQ((*view)->tag, (*frame)->tag);
  EXPECT_EQ((*view)->payload, std::string_view((*frame)->payload));

  // Nothing buffered behind it: both report end-of-input the same way.
  auto view2 = viewer.NextView();
  ASSERT_TRUE(view2.ok());
  EXPECT_FALSE(view2->has_value());
}

TEST(FrameDecoderTest, NextViewPipelinedFramesStayInOrder) {
  FrameDecoder decoder(1u << 20);
  std::string wire;
  for (int i = 0; i < 5; ++i) {
    wire += EncodeRequestFrame(MsgType::kQuery,
                               std::string(static_cast<size_t>(i) + 1,
                                           static_cast<char>('a' + i)));
  }
  ASSERT_TRUE(decoder.Append(wire).ok());
  for (int i = 0; i < 5; ++i) {
    auto view = decoder.NextView();
    ASSERT_TRUE(view.ok());
    ASSERT_TRUE(view->has_value()) << "frame " << i;
    EXPECT_EQ((*view)->payload, std::string(static_cast<size_t>(i) + 1,
                                            static_cast<char>('a' + i)));
  }
}

TEST(FrameDecoderTest, BufferShrinksAfterLargeFrame) {
  // A decoder that has carried one multi-megabyte snapshot frame must
  // not hold that high-water allocation for the rest of the (possibly
  // long-lived) connection.
  FrameDecoder decoder(64u << 20);
  const std::string big(8u << 20, 's');
  ASSERT_TRUE(decoder.Append(EncodeRequestFrame(MsgType::kMerge, big)).ok());
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame->has_value());
  ASSERT_EQ((*frame)->payload.size(), big.size());
  EXPECT_GE(decoder.buffer_capacity(), big.size());

  // The shrink happens on the next Append once the big frame has been
  // consumed; a small ping must come back to a small buffer.
  ASSERT_TRUE(decoder.Append(EncodeRequestFrame(MsgType::kPing, {})).ok());
  auto ping = decoder.Next();
  ASSERT_TRUE(ping.ok());
  ASSERT_TRUE(ping->has_value());
  EXPECT_LE(decoder.buffer_capacity(), FrameDecoder::kBufferShrinkBytes);
}

TEST(FrameDecoderTest, ShrinkPreservesPartialNextFrame) {
  // The dangerous case: a big frame is consumed while the next frame is
  // already partially buffered behind it. The shrink must compact, not
  // truncate.
  FrameDecoder decoder(64u << 20);
  const std::string big(4u << 20, 'b');
  const std::string next =
      EncodeRequestFrame(MsgType::kQuery, std::string(200, 'q'));
  std::string wire = EncodeRequestFrame(MsgType::kMerge, big);
  wire += next.substr(0, next.size() / 2);  // half of the follower
  ASSERT_TRUE(decoder.Append(wire).ok());
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame->has_value());
  ASSERT_EQ((*frame)->payload.size(), big.size());

  ASSERT_TRUE(decoder.Append(next.substr(next.size() / 2)).ok());
  auto follower = decoder.Next();
  ASSERT_TRUE(follower.ok());
  ASSERT_TRUE(follower->has_value());
  EXPECT_EQ((*follower)->payload, std::string(200, 'q'));
  EXPECT_LE(decoder.buffer_capacity(), FrameDecoder::kBufferShrinkBytes);
}

TEST(MessageCodecTest, CodecFuzzNeverCrashes) {
  const Schema schema({{"Source", 97}, {"Destination", 47}, {"Hour", 24}});
  std::vector<ValueDictionary> dicts(3);
  for (ValueDictionary& dict : dicts) {
    for (const char* value : {"", "a", "b"}) dict.GetOrAdd(value);
  }
  const std::vector<ValueId> prior = {5, 6, 7};
  Rng rng(73);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes;
    if (iter % 2 == 0) {
      // Half the payloads open with a header the batch decoder accepts,
      // so the random bytes reach its cell loop.
      ByteWriter header;
      header.PutU8(static_cast<uint8_t>(rng.Uniform(2)));
      header.PutVarint64(3);
      header.PutVarint64(rng.Uniform(8));
      bytes = header.Release();
    }
    size_t len = rng.Uniform(120);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Next64() & 0xff));
    }
    // All or nothing: a refused batch leaves the buffer as it was.
    std::vector<ValueId> flat = prior;
    auto tuples = DecodeObserveBatchInto(bytes, schema, dicts, &flat);
    if (tuples.ok()) {
      EXPECT_EQ(flat.size(), prior.size() + 3 * *tuples);
    } else {
      EXPECT_EQ(flat, prior) << tuples.status();
    }
    (void)DecodeQueryRequest(bytes);
    (void)DecodeQueryResponse(bytes);
    (void)DecodeSnapshotRequest(bytes);
    (void)DecodeMergeRequest(bytes);
    (void)DecodeResponsePayload(bytes);
    (void)DecodeCheckpointResponse(bytes);
  }
}

}  // namespace
}  // namespace implistat::net
