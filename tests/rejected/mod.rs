//! One table of plans that every run surface refuses as a usage error,
//! because `RunPlan::validate` rejects the complete plan: `dxbar-sim` and
//! `trace_run` exit 2 for the rows their flags can express, `campaign_run`
//! on a spec file exits 2 and `POST /jobs` answers 400 for every row.
//! Plain data, so the root, `bench` and `noc-daemon` tests include this one
//! file by path.

// Each surface uses the helpers its flags or body can take.
#![allow(dead_code)]

/// One rejected plan on a 4x4 mesh (`trace_run` runs its scenario rows on
/// the paper's 8x8 one) at load 0.2.
pub struct Rejected {
    /// The `Design` variant, as a spec file spells it.
    pub design: &'static str,
    /// The same design as the CLIs spell it.
    pub cli: &'static str,
    /// Routers given one crossbar fault, in percent.
    pub fault_percent: u32,
    pub scenario: Option<&'static str>,
    /// Failed physical channels.
    pub link_faults: usize,
    /// A substring of the error every surface reports.
    pub error: &'static str,
}

pub const TABLE: [Rejected; 5] = [
    Rejected {
        design: "FlitBless",
        cli: "flit-bless",
        fault_percent: 50,
        scenario: None,
        link_faults: 0,
        error: "crossbar faults are only meaningful for dxbar-dor / dxbar-wf",
    },
    Rejected {
        design: "DXbarDor",
        cli: "dxbar-dor",
        fault_percent: 0,
        scenario: Some("mixed_islands"),
        link_faults: 0,
        error: "mixed fabrics require credit-free designs",
    },
    Rejected {
        design: "Buffered4",
        cli: "buffered4",
        fault_percent: 0,
        scenario: Some("torus_ur"),
        link_faults: 0,
        error: "Buffered 4 routes DOR over credit-coupled links, which can deadlock on a torus: \
                channel-dependency cycle (0,0)",
    },
    Rejected {
        design: "DXbarWf",
        cli: "dxbar-wf",
        fault_percent: 0,
        scenario: Some("torus_ur"),
        link_faults: 0,
        error: "DXbar WF routes WF over credit-coupled links",
    },
    Rejected {
        design: "DXbarDor",
        cli: "dxbar-dor",
        fault_percent: 0,
        scenario: None,
        link_faults: 500,
        error: "cannot fail 500 of 24 channels",
    },
];

impl Rejected {
    /// `dxbar-sim` arguments, where its flags can express the row (it has
    /// no scenario or link-fault flag).
    pub fn dxbar_sim_args(&self) -> Option<Vec<String>> {
        let faults = self.fault_percent.to_string();
        let args = ["--design", self.cli, "--mesh", "4x4", "--faults", &faults];
        (self.scenario.is_none() && self.link_faults == 0).then(|| args.map(String::from).to_vec())
    }

    /// `trace_run` arguments, where its flags can express the row (it has
    /// no fault flag).
    pub fn trace_run_args(&self) -> Option<Vec<String>> {
        let scenario = self.scenario?;
        let args = [
            "--design",
            self.cli,
            "--scenario",
            scenario,
            "--load",
            "0.2",
        ];
        (self.fault_percent == 0 && self.link_faults == 0).then(|| args.map(String::from).to_vec())
    }

    /// The row as a campaign spec file: one point group.
    pub fn spec_json(&self) -> String {
        let workload = match self.scenario {
            Some(name) => format!(r#"{{"kind":"scenario","scenarios":["{name}"],"loads":[0.2]}}"#),
            None => r#"{"kind":"synthetic","patterns":["UniformRandom"],"loads":[0.2]}"#.into(),
        };
        let fractions = match self.fault_percent {
            0 => String::new(),
            p => format!("{}", f64::from(p) / 100.0),
        };
        let links = match self.link_faults {
            0 => String::new(),
            k => k.to_string(),
        };
        format!(
            r#"{{"name":"rejected","retry":{{"max_retries":0}},"groups":[{{"label":"rejected",
            "config":{{"width":4,"height":4,"topology":"mesh","flit_bits":128,"buffer_depth":4,
            "num_vcs":1,"fairness_threshold":4,"fault_detection_delay":5,"warmup_cycles":20,
            "measure_cycles":100,"drain_cycles":20,"seed":1,"packet_len":1,"source_queue_cap":64}},
            "designs":["{}"],"workload":{workload},"fault_fractions":[{fractions}],
            "transient_rates":[],"link_faults":[{links}],"seeds":[],"tag":null}}]}}"#,
            self.design
        )
    }
}
