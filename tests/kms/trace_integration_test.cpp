// The PR's acceptance path: one traced get_key through the KmsWireClient
// is ONE trace — the client span, the version-2 frame across the channel,
// the server span, admission, the service round with its DRR pick, the
// mesh plan and per-link hops, and the grant — all sharing a trace_id and
// parent-linked into a single tree, exported as loadable Chrome JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/kms/wire_service.hpp"
#include "src/net/channel_transport.hpp"
#include "src/network/key_service.hpp"
#include "src/obs/export.hpp"
#include "src/obs/trace.hpp"

namespace qkd::kms {
namespace {

using network::NodeId;
using network::NodeKind;
using network::Topology;

Topology hot_star() {
  Topology topo;
  const NodeId relay = topo.add_node("relay", NodeKind::kTrustedRelay);
  const NodeId a = topo.add_node("a", NodeKind::kEndpoint);
  const NodeId b = topo.add_node("b", NodeKind::kEndpoint);
  qkd::optics::LinkParams optics;
  optics.fiber_km = 1.0;
  optics.pulse_rate_hz = 1e9;
  topo.add_link(relay, a, optics);
  topo.add_link(relay, b, optics);
  return topo;
}

/// Client-side transport that pumps the server whenever the client inbox
/// is drained (same single-threaded stand-in as the wire API tests).
class ServedChannel final : public wire::Transport {
 public:
  ServedChannel(net::PublicChannel& channel, KmsWireServer& server)
      : client_side_(channel, net::ChannelTransport::Side::kA),
        server_side_(channel, net::ChannelTransport::Side::kB),
        server_(server) {}

  bool send_frame(const Bytes& frame) override {
    return client_side_.send_frame(frame);
  }
  std::optional<Bytes> recv_frame() override {
    if (auto ready = client_side_.recv_frame()) return ready;
    server_.serve_one(server_side_);
    return client_side_.recv_frame();
  }

 private:
  net::ChannelTransport client_side_;
  net::ChannelTransport server_side_;
  KmsWireServer& server_;
};

struct Harness {
  Harness() : mesh(hot_star(), 77), scheduler(clock), kms(mesh, scheduler, {}),
              server(kms, scheduler), io(channel, server), client(io) {
    mesh.step(20.0);  // supply never bounds this test
  }

  network::MeshSimulation mesh;
  qkd::SimClock clock;
  sim::EventScheduler scheduler;
  KeyManagementService kms;
  net::PublicChannel channel;
  KmsWireServer server;
  ServedChannel io;
  KmsWireClient client;
};

TEST(KmsTraceIntegration, OneWireGetKeyIsOneConnectedTrace) {
  Harness h;
  // Register before tracing starts: only the grant conversation should be
  // in the trace buffer when we assert on it.
  const auto alice = h.client.register_app("alice-app", 1, 2);
  ASSERT_TRUE(alice.has_value());

  obs::Tracer tracer(h.kms.shard_count());
  tracer.set_sim_time_source([&h] { return h.scheduler.now(); });
  tracer.set_enabled(true);
  h.client.set_tracer(&tracer);
  h.server.set_tracer(&tracer);
  h.kms.set_tracer(&tracer);
  h.mesh.set_tracer(&tracer);

  const auto reply = h.client.get_key(*alice, 512);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->status, GrantStatus::kGranted);

  const std::vector<obs::Span> spans = tracer.spans();
  ASSERT_FALSE(spans.empty());

  // Index the tree.
  std::map<std::uint64_t, const obs::Span*> by_id;
  std::multiset<std::string> names;
  for (const obs::Span& span : spans) {
    by_id[span.span_id] = &span;
    names.insert(span.name);
  }

  // Every stage of the path shows up...
  for (const char* required :
       {"kms.client.get_key", "kms.server.get_key", "kms.admit",
        "kms.service_round", "kms.drr_select", "mesh.plan", "mesh.hop",
        "kms.grant_round"})
    EXPECT_GE(names.count(required), 1u) << "missing span: " << required;
  // ...and a two-link relay route walks two hops.
  EXPECT_GE(names.count("mesh.hop"), 2u);

  // ONE trace: every span carries the client root's trace_id, the client
  // span is the only root, and every parent pointer lands on a recorded
  // span (nothing dangles — the wire crossing included).
  const obs::Span* root = nullptr;
  for (const obs::Span& span : spans)
    if (span.name == "kms.client.get_key") root = &span;
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_span, 0u);
  for (const obs::Span& span : spans) {
    EXPECT_EQ(span.trace_id, root->trace_id) << span.name;
    if (&span == root) continue;
    EXPECT_NE(span.parent_span, 0u) << span.name << " is a stray root";
    EXPECT_TRUE(by_id.count(span.parent_span))
        << span.name << " parent not recorded";
    EXPECT_GE(span.sim_end, span.sim_start) << span.name << " never closed";
  }

  // The grant's ancestry chains back across the wire to the client call.
  const obs::Span* cursor = nullptr;
  for (const obs::Span& span : spans)
    if (span.name == "kms.grant_round") cursor = &span;
  ASSERT_NE(cursor, nullptr);
  std::vector<std::string> ancestry;
  while (cursor->parent_span != 0) {
    cursor = by_id.at(cursor->parent_span);
    ancestry.push_back(cursor->name);
  }
  EXPECT_EQ(ancestry.back(), "kms.client.get_key");
  EXPECT_NE(std::find(ancestry.begin(), ancestry.end(), "kms.server.get_key"),
            ancestry.end())
      << "grant ancestry skips the server span";

  // And the export is a loadable, non-empty Chrome trace document.
  const std::string json = obs::chrome_trace_json(tracer);
  EXPECT_EQ(json.find("{\"traceEvents\":[{"), 0u);
  EXPECT_NE(json.find("\"kms.client.get_key\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":" + std::to_string(root->trace_id)),
            std::string::npos);
}

TEST(KmsTraceIntegration, UntracedClientStillWorksAndRecordsNothing) {
  Harness h;
  obs::Tracer tracer(h.kms.shard_count());
  tracer.set_enabled(true);
  // Server-side layers traced, client not: the v1 frame carries no
  // context, so the server must see untraced requests (and the KMS side
  // roots its own service spans rather than crashing or cross-linking).
  h.server.set_tracer(&tracer);
  h.kms.set_tracer(&tracer);
  h.mesh.set_tracer(&tracer);

  const auto alice = h.client.register_app("alice-app", 1, 2);
  ASSERT_TRUE(alice.has_value());
  const auto reply = h.client.get_key(*alice, 256);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, GrantStatus::kGranted);

  for (const obs::Span& span : tracer.spans()) {
    EXPECT_NE(span.name, "kms.client.get_key");
    if (span.name == "kms.server.get_key") {
      EXPECT_EQ(span.parent_span, 0u) << "no context arrived on a v1 frame";
    }
  }
}

}  // namespace
}  // namespace qkd::kms
