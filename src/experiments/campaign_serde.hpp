#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "experiments/campaign.hpp"

namespace rt::experiments {

/// Wire/cache format version of the campaign serialization. Bump on ANY
/// schema change (field added, reordered, retyped): readers reject other
/// versions loudly instead of misinterpreting fields.
inline constexpr std::uint64_t kCampaignSerdeVersion = 1;

/// Thrown on any malformed, truncated or version-mismatched input. The
/// contract is fail-loudly: a damaged cache file or pipe frame must never
/// deserialize as zeros — every strict prefix of a valid serialization and
/// every trailing-garbage suffix raises this. The readers accept only
/// canonical bytes: whatever decodes serializes back to exactly the input
/// (one newline after each value, no padding, no other spelling of a
/// number).
class SerdeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Text serialization of campaign data, designed for two consumers that
/// both demand bit-exactness:
///  - the content-hash result cache (rt::service::CampaignCellCache), whose
///    hits must be indistinguishable from re-running the campaign;
///  - the sharded scheduler's pipe protocol, whose reassembled grids must
///    be bit-identical to the in-process scheduler at any worker count.
/// Doubles are therefore encoded as their raw IEEE-754 bit pattern
/// (`d<16 hex digits>`), never via decimal round-trips; strings are
/// netstrings (`<len>:<raw bytes>`), so embedded newlines/commas/quotes in
/// monitor reasons survive unmangled. Each top-level payload carries a
/// magic + version header and a closing `end` sentinel.
///
/// Each record's fields are listed once, in wire order, in one
/// `fields(io, record)` function that both the writer and the checking
/// reader run; tests/test_campaign_serde.cpp pins the bytes of a record
/// that sets every field, so moving those pins needs a version bump. The
/// cache key and the drive key are built from these same bytes
/// (serialize_spec) instead of listing spec fields again.
[[nodiscard]] std::string serialize_spec(const CampaignSpec& spec);
[[nodiscard]] CampaignSpec deserialize_spec(std::string_view text);

[[nodiscard]] std::string serialize_run_result(const RunResult& run);
[[nodiscard]] RunResult deserialize_run_result(std::string_view text);

[[nodiscard]] std::string serialize_campaign_result(const CampaignResult& r);
[[nodiscard]] CampaignResult deserialize_campaign_result(
    std::string_view text);

}  // namespace rt::experiments
