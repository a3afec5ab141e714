// WorkflowSpec codecs for the paper's applications, and the standard
// server-side resolver.
//
// A remote client edits a CensusConfig / IeConfig locally (the scripted
// human edits of apps/*_app.h), encodes it into a WorkflowSpec, and the
// server resolves the spec back into the identical workflow — identical
// down to operator signatures, so the store, planner, and in-flight table
// behave exactly as if the workflow had been built in-process. Both codecs
// are total inverses over their config structs (pinned by
// tests/net_test.cc round-trip tests); decoding starts from a
// default-constructed config and overrides only the keys present, so newer
// clients may omit fields and older servers ignore keys they do not know.
#ifndef HELIX_NET_APP_SPECS_H_
#define HELIX_NET_APP_SPECS_H_

#include "apps/census_app.h"
#include "apps/ie_app.h"
#include "apps/stream_app.h"
#include "common/result.h"
#include "net/wire.h"

namespace helix {
namespace net {

/// Spec names understood by MakeStandardResolver.
inline constexpr char kCensusApp[] = "census";
inline constexpr char kIeApp[] = "ie";
inline constexpr char kStreamApp[] = "stream";

core::WorkflowSpec MakeCensusSpec(const apps::CensusConfig& config);
Result<apps::CensusConfig> CensusConfigFromSpec(const core::WorkflowSpec& spec);

core::WorkflowSpec MakeIeSpec(const apps::IeConfig& config);
Result<apps::IeConfig> IeConfigFromSpec(const core::WorkflowSpec& spec);

core::WorkflowSpec MakeStreamSpec(const apps::StreamConfig& config);
Result<apps::StreamConfig> StreamConfigFromSpec(const core::WorkflowSpec& spec);

/// Resolver for the standard applications ("census", "ie", "stream");
/// anything else is NotFound. Data paths inside the specs are read
/// server-side.
core::WorkflowResolver MakeStandardResolver();

}  // namespace net
}  // namespace helix

#endif  // HELIX_NET_APP_SPECS_H_
