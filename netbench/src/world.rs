//! The served system under test: an agent, an owner O, a third party S and
//! one client space, all on loopback TCP with default `Options`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use netobj::{Options, Space};
use netobj_agent::{Agent, AgentClient};
use netobj_bench::{new_counter, BenchClient, BenchExport, BenchImpl, CounterClient};
use netobj_transport::tcp::Tcp;
use netobj_transport::Endpoint;

/// Agent names the two services are registered under.
const NAME_O: &str = "bench/owner";
const NAME_S: &str = "bench/third-party";

/// One set of spaces wired together through the agent.
pub struct World {
    pub agent: Space,
    /// The owner: mints counters and serves `null`/`blob`/`get_blob`.
    pub o: Space,
    /// The third party that receives references owned by O.
    pub s: Space,
    /// The space both caller threads share.
    pub client: Space,
    pub svc_o: BenchClient,
    pub svc_s: BenchClient,
    /// Every space's agent stub, held for the run so that no surrogate
    /// count moves after set-up.
    directories: Vec<AgentClient>,
}

/// What one set-up cost, from the first space built to the last import.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub total: Duration,
    /// The client's `import_root` of the agent (`netobj_agent::connect`).
    pub import_root: Duration,
    /// Mean of the client's two agent `get` calls.
    pub agent_get: Duration,
}

fn tcp_space(listen: bool) -> Space {
    let mut b = Space::builder()
        .transport(Arc::new(Tcp))
        .options(Options::default());
    if listen {
        b = b.listen(Endpoint::tcp("127.0.0.1:0"));
    }
    b.build().expect("build a TCP space")
}

/// Builds a server space exporting a `BenchSvc` and registers it with the
/// agent at `agent_ep` under `name`.
fn serve_bench(agent_ep: &Endpoint, name: &str) -> (Space, AgentClient) {
    let space = tcp_space(true);
    let own = CounterClient::narrow(space.local(new_counter())).expect("narrow own counter");
    let service = Arc::new(BenchImpl::new(own));
    service.set_space(space.clone());
    let handle = space
        .export(Arc::new(BenchExport(service)))
        .expect("export the bench service");
    let directory = netobj_agent::connect(&space, agent_ep).expect("server reaches the agent");
    directory.put(name.to_string(), handle).expect("agent put");
    (space, directory)
}

fn lookup(agent: &AgentClient, name: &str) -> (BenchClient, Duration) {
    let t0 = Instant::now();
    let handle = agent
        .get(name.to_string())
        .expect("agent get")
        .unwrap_or_else(|| panic!("agent has no {name}"));
    let took = t0.elapsed();
    (
        BenchClient::narrow(handle).expect("narrow BenchClient"),
        took,
    )
}

impl World {
    pub fn build() -> (World, SetupTimes) {
        let t0 = Instant::now();
        let agent = tcp_space(true);
        netobj_agent::serve(&agent).expect("serve the agent");
        let agent_ep = agent.endpoint().expect("agent listens");
        let (o, dir_o) = serve_bench(&agent_ep, NAME_O);
        let (s, dir_s) = serve_bench(&agent_ep, NAME_S);
        let client = tcp_space(false);
        let t_import = Instant::now();
        let directory = netobj_agent::connect(&client, &agent_ep).expect("client reaches agent");
        let import_root = t_import.elapsed();
        let (svc_o, get_o) = lookup(&directory, NAME_O);
        let (svc_s, get_s) = lookup(&directory, NAME_S);
        let total = t0.elapsed();
        let times = SetupTimes {
            total,
            import_root,
            agent_get: (get_o + get_s) / 2,
        };
        let world = World {
            agent,
            o,
            s,
            client,
            svc_o,
            svc_s,
            directories: vec![directory, dir_o, dir_s],
        };
        (world, times)
    }

    /// The spaces whose counters the run reads.
    pub fn spaces(&self) -> [&Space; 4] {
        [&self.client, &self.o, &self.s, &self.agent]
    }

    /// The spaces that serve calls, and so own a reactor.
    pub fn servers(&self) -> [&Space; 3] {
        [&self.o, &self.s, &self.agent]
    }

    /// Stops every space, the client first so that no clean call is left
    /// retrying against a stopped owner.
    pub fn shutdown(self) {
        let World {
            agent,
            o,
            s,
            client,
            svc_o,
            svc_s,
            directories,
        } = self;
        client.shutdown();
        drop((svc_o, svc_s, directories));
        s.shutdown();
        o.shutdown();
        agent.shutdown();
    }
}
