//! The three loop checks agree: on seeded single-group graphs, the
//! analyzer's URT007, `elaborate`'s lowering and `BlockDiagram::validate`
//! name the same blocks on a feedthrough cycle, or all accept the graph.
//!
//! Each graph has up to eight nodes of four kinds: a constant (no input),
//! a gain and a two-input sum (both feedthrough) and an integrator (not
//! feedthrough). Every input reads a random node's output, the node
//! itself included, so the graphs hold feedthrough self-flows, nodes
//! downstream of a loop or between two loops, and loops an integrator
//! breaks.

use unified_rt::analysis::analyze;
use unified_rt::blocks::continuous::Integrator;
use unified_rt::blocks::diagram::BlockDiagram;
use unified_rt::blocks::math::{Gain, Sum};
use unified_rt::blocks::sources::Constant;
use unified_rt::core::elaborate::{elaborate, BehaviorRegistry};
use unified_rt::core::error::CoreError;
use unified_rt::core::model::{ModelBuilder, UnifiedModel};
use unified_rt::dataflow::error::FlowError;
use unified_rt::dataflow::flowtype::FlowType;
use unified_rt::dataflow::streamer::{FnStreamer, StreamerBehavior};
use unified_rt::ode::rng::Pcg32;
use unified_rt::ode::SolveError;

const GRAPHS: u64 = 300;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Constant,
    Gain,
    Sum,
    Integrator,
}

impl Kind {
    fn inputs(self) -> usize {
        match self {
            Kind::Constant => 0,
            Kind::Gain | Kind::Integrator => 1,
            Kind::Sum => 2,
        }
    }

    fn feedthrough(self) -> bool {
        matches!(self, Kind::Gain | Kind::Sum)
    }
}

/// A graph: node kinds, and per node the node each input reads.
struct Graph {
    kinds: Vec<Kind>,
    sources: Vec<Vec<usize>>,
}

fn random_graph(seed: u64) -> Graph {
    let mut rng = Pcg32::seed_from_u64(seed);
    let n = rng.gen_range_usize(1, 9);
    let kinds: Vec<Kind> = (0..n)
        .map(|_| {
            [Kind::Constant, Kind::Gain, Kind::Sum, Kind::Integrator][rng.gen_range_usize(0, 4)]
        })
        .collect();
    let sources = kinds
        .iter()
        .map(|k| (0..k.inputs()).map(|_| rng.gen_range_usize(0, n)).collect())
        .collect();
    Graph { kinds, sources }
}

/// A behaviour with `inputs` lanes in and one out that does not feed
/// through: the model's integrator.
struct Lag {
    inputs: usize,
}

impl StreamerBehavior for Lag {
    fn name(&self) -> &str {
        "lag"
    }
    fn input_width(&self) -> usize {
        self.inputs
    }
    fn output_width(&self) -> usize {
        1
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn advance(&mut self, _t: f64, _h: f64, _u: &[f64], _y: &mut [f64]) -> Result<(), SolveError> {
        Ok(())
    }
}

/// The graph as a one-group model, streamer `n{i}` with inputs `u{p}` and
/// output `y`, and a registry of behaviours for it.
fn model(g: &Graph) -> (UnifiedModel, BehaviorRegistry) {
    let mut b = ModelBuilder::new("m");
    let mut registry = BehaviorRegistry::new();
    let s: Vec<_> = (0..g.kinds.len()).map(|i| b.streamer(format!("n{i}"), "none")).collect();
    for (i, &kind) in g.kinds.iter().enumerate() {
        b.streamer_out(s[i], "y", FlowType::scalar());
        b.streamer_feedthrough(s[i], kind.feedthrough());
        for (p, &from) in g.sources[i].iter().enumerate() {
            b.streamer_in(s[i], format!("u{p}"), FlowType::scalar());
            b.flow_between_streamers(s[from], "y", s[i], format!("u{p}"));
        }
        let (name, inputs) = (format!("n{i}"), kind.inputs());
        registry = if kind.feedthrough() {
            let f = move |_t: f64, _h: f64, u: &[f64], y: &mut [f64]| y[0] = u.iter().sum();
            registry.streamer(name.clone(), move || Box::new(FnStreamer::new(&name, inputs, 1, f)))
        } else {
            registry.streamer(name, move || Box::new(Lag { inputs }))
        };
    }
    (b.build(), registry)
}

/// The graph as a block diagram, block `n{i}` per node.
fn diagram(g: &Graph) -> BlockDiagram {
    let mut d = BlockDiagram::new("m");
    let ids: Vec<_> = g
        .kinds
        .iter()
        .enumerate()
        .map(|(i, kind)| {
            let label = format!("n{i}");
            match kind {
                Kind::Constant => d.add_block_labeled(label, Constant::new(1.0)),
                Kind::Gain => d.add_block_labeled(label, Gain::new(2.0)),
                Kind::Sum => d.add_block_labeled(label, Sum::new(&[1.0, 1.0])),
                Kind::Integrator => d.add_block_labeled(label, Integrator::new(0.0)),
            }
        })
        .collect();
    for (i, sources) in g.sources.iter().enumerate() {
        for (p, &from) in sources.iter().enumerate() {
            d.connect(ids[from], 0, ids[i], p).expect("one writer per input");
        }
    }
    d
}

/// The names of a refused loop, or `None` for an accepted graph.
fn loop_names(result: Result<(), FlowError>) -> Option<Vec<String>> {
    match result {
        Ok(()) => None,
        Err(FlowError::AlgebraicLoop { nodes }) => Some(nodes),
        Err(other) => panic!("expected an algebraic loop or success, got {other}"),
    }
}

#[test]
fn analyzer_lowering_and_diagrams_name_the_same_loops() {
    let (mut loops, mut partial) = (0, 0);
    for seed in 0..GRAPHS {
        let g = random_graph(seed);
        let (model, registry) = model(&g);

        let analyzed: Vec<_> = analyze(&model).into_iter().filter(|d| d.code == "URT007").collect();
        assert!(analyzed.len() <= 1, "seed {seed}: {analyzed:#?}");
        let analyzed = analyzed.first().map(|d| {
            d.path.strip_prefix("m/").expect("model path").split(',').map(str::to_owned).collect()
        });

        let elaborated = loop_names(match elaborate(&model, registry) {
            Ok(_) => Ok(()),
            Err(CoreError::Flow(e)) => Err(e),
            Err(other) => panic!("seed {seed}: {other}"),
        });

        let validated = loop_names(diagram(&g).validate());

        assert_eq!(analyzed, elaborated, "seed {seed}: analyzer vs elaborate");
        assert_eq!(validated, elaborated, "seed {seed}: diagram vs elaborate");
        if let Some(names) = elaborated {
            loops += 1;
            let feedthrough = g.kinds.iter().filter(|k| k.feedthrough()).count();
            partial += usize::from(names.len() < feedthrough);
        }
    }
    // The seeds cover accepted graphs, refused ones, and refusals that
    // leave some feedthrough node unnamed.
    assert!(loops > 0 && loops < GRAPHS as usize, "{loops} of {GRAPHS} graphs loop");
    assert!(partial > 0, "no loop report left a feedthrough node out");
}
