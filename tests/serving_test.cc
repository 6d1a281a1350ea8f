// HolimServer tests: protocol parsing, bounded-queue admission control,
// artifact-affinity dispatch order, exact coalesced-build counting,
// queue-wait deadline charging on an injected clock, ghost pre-warm, the
// byte-determinism of pipe mode, and the scheduling-never-changes-results
// contract (heat+affinity vs FIFO+LRU per-id seed parity).

#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "serving/holim_server.h"
#include "serving/protocol.h"
#include "util/deadline.h"
#include "util/fault_injection.h"

namespace holim {
namespace {

/// Small, fast server: one or two 150-node tenants, R=32 arenas, a cheap
/// selector — every test below runs in milliseconds.
ServerOptions FastOptions() {
  ServerOptions options;
  options.queue_depth = 8;
  options.affinity = true;
  options.cache_policy = Workspace::EvictionPolicy::kHeatBenefit;
  options.max_cache_bytes = 0;
  options.prewarm = false;  // tests enable it explicitly
  options.num_sketches = 32;
  options.seed = 7;
  return options;
}

ProtocolRequest Solve(uint64_t id, uint32_t tenant, const std::string& model,
                      uint32_t k = 4) {
  ProtocolRequest request;
  request.verb = RequestVerb::kSolve;
  request.id = id;
  request.tenant = tenant;
  request.model = model;
  request.algo = "degreediscount";
  request.k = k;
  return request;
}

void AddTenants(HolimServer& server, int count) {
  for (int t = 0; t < count; ++t) {
    ASSERT_TRUE(
        server.AddTenant(GenerateSocialGraph(150, 5.0, 100 + t).ValueOrDie())
            .ok());
  }
}

TEST(ProtocolTest, ParsesTheFullSolveGrammar) {
  auto parsed = ParseRequestLine(
      "solve id=7 tenant=1 model=WC k=6 algo=degreediscount deadline_ms=2.5");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->verb, RequestVerb::kSolve);
  EXPECT_EQ(parsed->id, 7u);
  EXPECT_EQ(parsed->tenant, 1u);
  EXPECT_EQ(parsed->model, "WC");
  EXPECT_EQ(parsed->k, 6u);
  EXPECT_EQ(parsed->algo, "degreediscount");
  EXPECT_EQ(parsed->deadline_ms, 2.5);

  // Field order is free; omitted fields keep their defaults.
  auto sparse = ParseRequestLine("solve k=3 id=9");
  ASSERT_TRUE(sparse.ok());
  EXPECT_EQ(sparse->model, "IC");
  EXPECT_EQ(sparse->tenant, 0u);

  EXPECT_EQ(ParseRequestLine("ping").ValueOrDie().verb, RequestVerb::kPing);
  EXPECT_EQ(ParseRequestLine("stats").ValueOrDie().verb, RequestVerb::kStats);
  EXPECT_EQ(ParseRequestLine("quit").ValueOrDie().verb, RequestVerb::kQuit);
}

TEST(ProtocolTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseRequestLine("").ok());
  EXPECT_FALSE(ParseRequestLine("frobnicate").ok());
  EXPECT_FALSE(ParseRequestLine("solve id=abc").ok());
  EXPECT_FALSE(ParseRequestLine("solve bogus=1").ok());
  EXPECT_FALSE(ParseRequestLine("solve id").ok());
  EXPECT_FALSE(ParseRequestLine("solve model=XX").ok());
  EXPECT_FALSE(ParseRequestLine("solve k=0").ok());
  EXPECT_FALSE(ParseRequestLine("solve deadline_ms=-1").ok());
  EXPECT_FALSE(ParseRequestLine("ping id=1").ok());  // verb takes no fields
}

TEST(ServerTest, AdmissionControlRejectsWhenFull) {
  ServerOptions options = FastOptions();
  options.queue_depth = 2;
  HolimServer server(options);
  AddTenants(server, 1);

  EXPECT_TRUE(server.Submit(Solve(1, 0, "IC")).ok());
  EXPECT_TRUE(server.Submit(Solve(2, 0, "IC")).ok());
  EXPECT_TRUE(server.queue_full());
  const Status third = server.Submit(Solve(3, 0, "IC"));
  EXPECT_EQ(third.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server.stats().rejected, 1u);
  EXPECT_EQ(server.stats().admitted, 2u);
  EXPECT_EQ(server.queue_size(), 2u);

  // Non-solve verbs and unknown tenants never enter the queue.
  ProtocolRequest ping;
  ping.verb = RequestVerb::kPing;
  EXPECT_EQ(server.Submit(ping).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Submit(Solve(4, 9, "IC")).code(),
            StatusCode::kInvalidArgument);

  // Draining frees the slot again.
  ASSERT_TRUE(server.DispatchNext().ok());
  EXPECT_FALSE(server.queue_full());
  EXPECT_TRUE(server.Submit(Solve(5, 0, "IC")).ok());
}

TEST(ServerTest, AffinityRunsSameKeyGroupsBackToBack) {
  // Queue [IC, WC, IC]: affinity dispatches IC, IC, WC (one IC build for
  // the group); FIFO dispatches in order and pays the same build anyway —
  // but the second IC is no longer adjacent, which the coalescing test
  // below turns into a counted difference under a byte budget.
  const auto dispatch_order = [](bool affinity) {
    ServerOptions options = FastOptions();
    options.affinity = affinity;
    HolimServer server(options);
    AddTenants(server, 1);
    EXPECT_TRUE(server.Submit(Solve(1, 0, "IC")).ok());
    EXPECT_TRUE(server.Submit(Solve(2, 0, "WC")).ok());
    EXPECT_TRUE(server.Submit(Solve(3, 0, "IC")).ok());
    std::vector<uint64_t> ids;
    while (server.queue_size() > 0) {
      ids.push_back(server.DispatchNext().ValueOrDie().id);
    }
    return ids;
  };
  EXPECT_EQ(dispatch_order(true), (std::vector<uint64_t>{1, 3, 2}));
  EXPECT_EQ(dispatch_order(false), (std::vector<uint64_t>{1, 2, 3}));
}

TEST(ServerTest, CoalescedCountsQueuedMissesServedWarm) {
  HolimServer server(FastOptions());
  AddTenants(server, 1);

  // Both IC requests are admitted while the arena is cold; dispatching
  // the first builds it, so the second is a coalesced miss — one build
  // for two queued misses, counted exactly.
  EXPECT_TRUE(server.Submit(Solve(1, 0, "IC")).ok());
  EXPECT_TRUE(server.Submit(Solve(2, 0, "IC")).ok());
  auto first = server.DispatchNext();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->warm_sketch);
  EXPECT_FALSE(first->coalesced);
  auto second = server.DispatchNext();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->warm_sketch);
  EXPECT_TRUE(second->coalesced);
  EXPECT_EQ(second->seeds_csv, first->seeds_csv);  // reuse is invisible

  // A request admitted AFTER the arena exists is warm but not coalesced —
  // no build was saved by scheduling; it was simply a cache hit.
  EXPECT_TRUE(server.Submit(Solve(3, 0, "IC")).ok());
  auto third = server.DispatchNext();
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->warm_sketch);
  EXPECT_FALSE(third->coalesced);

  EXPECT_EQ(server.stats().sketch_builds, 1u);
  EXPECT_EQ(server.stats().warm_sketch_hits, 2u);
  EXPECT_EQ(server.stats().coalesced, 1u);
  EXPECT_EQ(server.stats().served, 3u);
}

TEST(ServerTest, ServerArenaKeysAgreeWithEngineSketchKeys) {
  // holimd fingerprints each tenant model once, at AddTenant; the engine
  // hashes the request's params again in every Solve. Were the two keys
  // ever to drift, a request admitted after its arena exists would look
  // cold at admission and be miscounted as coalesced — so for every
  // tenant and model: two queued misses cost one build (the second is
  // coalesced), and a third request is admitted warm.
  HolimServer server(FastOptions());
  AddTenants(server, 2);
  uint64_t id = 0;
  for (uint32_t tenant = 0; tenant < 2; ++tenant) {
    for (const std::string model : {"IC", "WC", "LT"}) {
      SCOPED_TRACE("tenant " + std::to_string(tenant) + " " + model);
      ASSERT_TRUE(server.Submit(Solve(++id, tenant, model)).ok());
      ASSERT_TRUE(server.Submit(Solve(++id, tenant, model)).ok());
      auto cold = server.DispatchNext();
      ASSERT_TRUE(cold.ok());
      EXPECT_FALSE(cold->warm_sketch);
      auto coalesced = server.DispatchNext();
      ASSERT_TRUE(coalesced.ok());
      EXPECT_TRUE(coalesced->warm_sketch);
      EXPECT_TRUE(coalesced->coalesced);

      ASSERT_TRUE(server.Submit(Solve(++id, tenant, model)).ok());
      auto repeated = server.DispatchNext();
      ASSERT_TRUE(repeated.ok());
      EXPECT_TRUE(repeated->warm_sketch);
      EXPECT_FALSE(repeated->coalesced) << "admitted cold: keys disagree";
    }
  }
  EXPECT_EQ(server.stats().sketch_builds, 6u);
  EXPECT_EQ(server.stats().warm_sketch_hits, 12u);
  EXPECT_EQ(server.stats().coalesced, 6u);
  EXPECT_EQ(server.stats().served, 18u);
}

TEST(ServerTest, QueueWaitChargesAgainstTheDeadline) {
  ManualClock clock;
  ServerOptions options = FastOptions();
  options.clock = &clock;
  HolimServer server(options);
  AddTenants(server, 1);

  // celf (not the checkpoint-free degreediscount heuristic) so the
  // work_budget=1 expiry actually fires the degradation ladder.
  ProtocolRequest expired = Solve(1, 0, "IC");
  expired.algo = "celf";
  expired.deadline_ms = 10.0;
  EXPECT_TRUE(server.Submit(expired).ok());
  clock.Advance(20 * 1'000'000LL);  // 20 ms in the queue: overstayed

  auto reply = server.DispatchNext();
  ASSERT_TRUE(reply.ok());
  // The overload response is the degradation ladder, not an error: the
  // overstayed request lands deterministically in the heuristic tier and
  // builds no arena.
  EXPECT_TRUE(reply->degraded);
  EXPECT_EQ(reply->tier, ResultTier::kHeuristic);
  EXPECT_FALSE(reply->warm_sketch);
  EXPECT_EQ(server.stats().expired_in_queue, 1u);
  EXPECT_EQ(server.stats().sketch_builds, 0u);
  EXPECT_EQ(server.stats().served, 1u);

  // A request with deadline headroom left runs at full tier.
  ProtocolRequest fresh = Solve(2, 0, "IC");
  fresh.algo = "celf";
  fresh.deadline_ms = 1e6;
  EXPECT_TRUE(server.Submit(fresh).ok());
  auto full = server.DispatchNext();
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->degraded);
  EXPECT_EQ(full->tier, ResultTier::kFull);
  EXPECT_EQ(server.stats().expired_in_queue, 1u);
  EXPECT_EQ(server.stats().sketch_builds, 1u);
}

TEST(ServerTest, SchedulingNeverChangesResults) {
  // The same request stream through heat+affinity and through FIFO+LRU
  // must produce identical per-id seed sets and spreads — scheduling and
  // cache policy may only change WHEN work happens, never its output.
  const std::vector<ProtocolRequest> stream = {
      Solve(0, 0, "IC"), Solve(1, 1, "WC"), Solve(2, 0, "IC", 6),
      Solve(3, 0, "LT"), Solve(4, 1, "WC"), Solve(5, 0, "IC"),
      Solve(6, 1, "LT"), Solve(7, 0, "WC"), Solve(8, 0, "IC", 6),
  };
  const auto run = [&stream](bool optimized) {
    ServerOptions options = FastOptions();
    options.affinity = optimized;
    options.cache_policy = optimized ? Workspace::EvictionPolicy::kHeatBenefit
                                     : Workspace::EvictionPolicy::kLru;
    options.prewarm = optimized;
    HolimServer server(options);
    AddTenants(server, 2);
    std::map<uint64_t, std::pair<std::string, double>> by_id;
    for (const ProtocolRequest& request : stream) {
      if (server.queue_full()) {
        const auto reply = server.DispatchNext().ValueOrDie();
        by_id[reply.id] = {reply.seeds_csv, reply.spread};
      }
      EXPECT_TRUE(server.Submit(request).ok());
    }
    while (server.queue_size() > 0) {
      const auto reply = server.DispatchNext().ValueOrDie();
      by_id[reply.id] = {reply.seeds_csv, reply.spread};
    }
    return by_id;
  };
  const auto optimized = run(true);
  const auto baseline = run(false);
  ASSERT_EQ(optimized.size(), stream.size());
  EXPECT_EQ(optimized, baseline);
}

/// A one-tenant prewarm server whose budget holds one and a half IC
/// arenas: after an IC and then a WC solve, the IC arena is a ghost.
std::unique_ptr<HolimServer> ServerWithGhostedIcArena() {
  Graph sizing_graph = GenerateSocialGraph(150, 5.0, 100).ValueOrDie();
  const InfluenceParams sizing_params = MakeUniformIc(sizing_graph);
  SketchOptions sizing_options;
  sizing_options.num_snapshots = 32;
  sizing_options.seed = 7;
  const SketchOracle probe(sizing_graph, sizing_params, sizing_options);

  ServerOptions options = FastOptions();
  options.prewarm = true;
  options.max_cache_bytes = probe.ArenaBytes() + probe.ArenaBytes() / 2;
  auto server = std::make_unique<HolimServer>(options);
  AddTenants(*server, 1);
  EXPECT_TRUE(server->Submit(Solve(1, 0, "IC")).ok());
  EXPECT_TRUE(server->DispatchNext().ok());
  EXPECT_TRUE(server->Submit(Solve(2, 0, "WC")).ok());
  EXPECT_TRUE(server->DispatchNext().ok());
  return server;
}

bool HasSketchGhost(const Workspace& workspace) {
  for (const auto& [key, ghost] : workspace.ghosts()) {
    if (key.rfind("sketch|", 0) == 0) return true;
  }
  return false;
}

TEST(ServerTest, PrewarmRebuildsTheHottestGhost) {
  // Tight per-tenant budget: the WC solve evicts the IC arena (ghosting
  // it), then a budget raise plus further dispatches lets MaybePrewarm
  // rebuild IC ahead of demand — so the next IC request is warm without
  // a counted build.
  std::unique_ptr<HolimServer> server = ServerWithGhostedIcArena();
  Workspace& workspace = server->tenant_engine(0).workspace();
  ASSERT_FALSE(workspace.ghosts().empty()) << "budget never forced a ghost";
  EXPECT_EQ(server->stats().prewarms, 0u);  // no headroom while tight

  // Budget freed: the next dispatches pre-warm the ghosted IC arena (the
  // first MaybePrewarm may spend its turn forgetting an unbuildable
  // selector ghost, so allow a couple of dispatches).
  workspace.set_max_bytes(0);
  for (uint64_t id = 3; id < 6 && server->stats().prewarms == 0; ++id) {
    EXPECT_TRUE(server->Submit(Solve(id, 0, "WC")).ok());
    ASSERT_TRUE(server->DispatchNext().ok());
  }
  EXPECT_GE(server->stats().prewarms, 1u);

  const uint64_t builds_before = server->stats().sketch_builds;
  EXPECT_TRUE(server->Submit(Solve(9, 0, "IC")).ok());
  auto warmed = server->DispatchNext();
  ASSERT_TRUE(warmed.ok());
  EXPECT_TRUE(warmed->warm_sketch);
  EXPECT_EQ(server->stats().sketch_builds, builds_before);
}

TEST(ServerTest, FailedPrewarmIsSkippedAndKeepsItsGhost) {
  // A pre-warm whose arena build fails (here: an injected fault at the
  // Workspace's sketch site) must neither crash the server nor fail the
  // dispatch that triggered it; the ghost stays, and a later dispatch
  // retries it successfully.
  std::unique_ptr<HolimServer> server = ServerWithGhostedIcArena();
  Workspace& workspace = server->tenant_engine(0).workspace();
  ASSERT_TRUE(HasSketchGhost(workspace));
  workspace.set_max_bytes(0);
  uint64_t id = 3;
  {
    ScopedFaultInjection fault("workspace/sketch", 1);
    for (; id < 6 && !fault.fired(); ++id) {
      EXPECT_TRUE(server->Submit(Solve(id, 0, "WC")).ok());
      auto reply = server->DispatchNext();
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      EXPECT_TRUE(reply->warm_sketch);
    }
    ASSERT_TRUE(fault.fired()) << "no pre-warm reached the sketch build";
  }
  EXPECT_EQ(server->stats().prewarms, 0u);
  EXPECT_EQ(server->stats().failed, 0u);
  EXPECT_TRUE(HasSketchGhost(workspace));

  EXPECT_TRUE(server->Submit(Solve(id, 0, "WC")).ok());
  ASSERT_TRUE(server->DispatchNext().ok());
  EXPECT_EQ(server->stats().prewarms, 1u);
  EXPECT_FALSE(HasSketchGhost(workspace));
}

TEST(ServerTest, PipeModeIsByteDeterministic) {
  // Closed-loop script: more solves than queue slots, so HandleLine must
  // interleave dispatches — the full output (including that interleaving)
  // has to be a pure function of the script.
  const std::string script =
      "ping\n"
      "# comment lines and blanks are ignored\n"
      "\n"
      "solve id=1 tenant=0 model=IC k=4 algo=degreediscount\n"
      "solve id=2 tenant=0 model=WC k=4 algo=degreediscount\n"
      "solve id=3 tenant=0 model=IC k=4 algo=degreediscount\n"
      "solve id=4 tenant=1 model=LT k=4 algo=degreediscount\n"
      "solve id=5 tenant=0 model=IC k=4 algo=degreediscount\n"
      "stats\n"
      "quit\n";
  const auto run = [&script]() {
    ServerOptions options = FastOptions();
    options.queue_depth = 2;  // force closed-loop interleaving
    HolimServer server(options);
    AddTenants(server, 2);
    std::istringstream in(script);
    std::ostringstream out;
    EXPECT_TRUE(server.RunPipe(in, out).ok());
    return out.str();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("pong\n"), std::string::npos);
  EXPECT_NE(first.find("bye\n"), std::string::npos);
  EXPECT_NE(first.find("stats tenants=2 admitted=5"), std::string::npos);
  EXPECT_EQ(first.find("err"), std::string::npos) << first;
  // One ok-line per solve, each echoing its id exactly once.
  for (int id = 1; id <= 5; ++id) {
    const std::string tag = "ok id=" + std::to_string(id) + " ";
    const std::size_t at = first.find(tag);
    ASSERT_NE(at, std::string::npos) << tag;
    EXPECT_EQ(first.find(tag, at + 1), std::string::npos) << tag;
  }

  // EOF without quit still answers everything queued.
  ServerOptions options = FastOptions();
  HolimServer server(options);
  AddTenants(server, 1);
  std::istringstream in("solve id=8 tenant=0 model=IC k=4\n");
  std::ostringstream out;
  EXPECT_TRUE(server.RunPipe(in, out).ok());
  EXPECT_NE(out.str().find("ok id=8 "), std::string::npos);
}

// ------------------------------------------------------------ socket mode

/// holimd_cli's defaults as the CI pipe-mode smoke runs it (--tenants=2
/// --tenant-nodes=200 --sketches=32).
std::unique_ptr<HolimServer> HolimdLikeServer() {
  ServerOptions options;
  options.num_sketches = 32;
  auto server = std::make_unique<HolimServer>(options);
  for (uint64_t t = 0; t < 2; ++t) {
    EXPECT_TRUE(
        server->AddTenant(GenerateSocialGraph(200, 6.0, 42 + t).ValueOrDie())
            .ok());
  }
  return server;
}

/// The CI holimd pipe-mode script: warm/coalesced solves on two tenants
/// across all three models, two stats probes, then quit.
std::string CiPipeScript() {
  std::string script =
      "ping\nsolve id=1 tenant=0 model=IC k=5\nsolve id=2 tenant=0 "
      "model=IC k=5\nsolve id=3 tenant=1 model=WC k=5\nstats\n";
  int id = 3;
  for (int t : {0, 1}) {
    for (const char* model : {"IC", "WC", "LT"}) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        script += "solve id=" + std::to_string(++id) + " tenant=" +
                  std::to_string(t) + " model=" + model + " k=5\n";
      }
    }
  }
  return script + "stats\nquit\n";
}

std::string SocketPath(const std::string& tag) {
  return ::testing::TempDir() + "holimd_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// One client session: connects (retrying while the server binds), sends
/// `script`, half-closes, and returns every reply byte until the server
/// closes the connection. Empty when no server ever accepted.
std::string Converse(const std::string& path, const std::string& script) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  int fd = -1;
  for (int attempt = 0; attempt < 1000 && fd < 0; ++attempt) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  if (fd < 0) return "";
  EXPECT_EQ(::send(fd, script.data(), script.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(script.size()));
  ::shutdown(fd, SHUT_WR);
  std::string reply;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) reply.append(chunk, n);
  ::close(fd);
  return reply;
}

TEST(ServerSocketTest, RepliesAreByteIdenticalToPipeMode) {
  const std::string script = CiPipeScript();
  std::istringstream in(script);
  std::ostringstream out;
  ASSERT_TRUE(HolimdLikeServer()->RunPipe(in, out).ok());
  ASSERT_NE(out.str().find("stats tenants=2"), std::string::npos);

  const std::string path = SocketPath("parity");
  std::unique_ptr<HolimServer> server = HolimdLikeServer();
  Status served;
  std::thread thread([&] { served = server->ServeUnixSocket(path); });
  const std::string reply = Converse(path, script);
  thread.join();
  EXPECT_TRUE(served.ok()) << served.ToString();
  EXPECT_EQ(reply, out.str());
}

std::atomic<int> g_signals{0};
void CountSignal(int) { g_signals.fetch_add(1); }

TEST(ServerSocketTest, SignalDuringAcceptDoesNotStopServing) {
  // No SA_RESTART: the blocked accept() returns EINTR.
  struct sigaction action {};
  struct sigaction previous {};
  action.sa_handler = CountSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  const std::string path = SocketPath("eintr");
  ::unlink(path.c_str());
  HolimServer server(FastOptions());
  AddTenants(server, 1);
  Status served;
  std::thread thread([&] { served = server.ServeUnixSocket(path); });
  // Bound and listening once the path exists; then give the thread time
  // to block in accept() before the signal lands.
  struct stat st {};
  for (int i = 0; i < 1000 && ::stat(path.c_str(), &st) != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const int before = g_signals.load();
  ASSERT_EQ(::pthread_kill(thread.native_handle(), SIGUSR1), 0);
  for (int i = 0; i < 1000 && g_signals.load() == before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(g_signals.load(), before);

  EXPECT_EQ(Converse(path, "ping\nquit\n"), "pong\nbye\n");
  thread.join();
  EXPECT_TRUE(served.ok()) << served.ToString();
  ::sigaction(SIGUSR1, &previous, nullptr);
}

}  // namespace
}  // namespace holim
