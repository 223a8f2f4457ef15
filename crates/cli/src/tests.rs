use super::*;
use campaign::{CampaignSpec, Profile};
use dramdig_bench::eval::GridKind;
use mem_probe::ObservableKind;

fn args(words: &[&str]) -> Vec<String> {
    words.iter().map(|s| s.to_string()).collect()
}

#[test]
fn parses_every_sub_command() {
    assert_eq!(
        Command::parse(&args(&["list-machines"])).unwrap(),
        Command::ListMachines
    );
    assert_eq!(Command::parse(&args(&["help"])).unwrap(), Command::Help);
    assert_eq!(
        Command::parse(&args(&["uncover", "--machine", "4", "--seed", "9"])).unwrap(),
        Command::Uncover {
            trace: None,
            metrics: None,
            machine: 4,
            seed: 9,
            ablate: None,
            checkpoint: None,
            resume: false,
            budget: None,
            observables: vec![ObservableKind::ConflictTiming],
        }
    );
    assert_eq!(
        Command::parse(&args(&["uncover", "--machine", "4", "--ablate", "spec"])).unwrap(),
        Command::Uncover {
            trace: None,
            metrics: None,
            machine: 4,
            seed: 0xD16,
            ablate: Some(Ablation::Specifications),
            checkpoint: None,
            resume: false,
            budget: None,
            observables: vec![ObservableKind::ConflictTiming],
        }
    );
    assert_eq!(
        Command::parse(&args(&["compare", "--machine", "2"])).unwrap(),
        Command::Compare { machine: 2 }
    );
    assert_eq!(
        Command::parse(&args(&[
            "hammer",
            "--machine",
            "1",
            "--tool",
            "drama",
            "--tests",
            "3"
        ]))
        .unwrap(),
        Command::Hammer {
            machine: 1,
            tool: HammerTool::Drama,
            tests: 3
        }
    );
    assert_eq!(
        Command::parse(&args(&["decode", "--machine", "6", "--addr", "0x1f00"])).unwrap(),
        Command::Decode {
            machine: 6,
            addr: 0x1f00
        }
    );
    assert!(matches!(
        Command::parse(&args(&[
            "validate", "--funcs", "(6)", "--rows", "1~2", "--cols", "0"
        ])),
        Ok(Command::Validate { .. })
    ));
}

#[test]
fn rejects_malformed_command_lines() {
    assert!(Command::parse(&[]).is_err());
    assert!(Command::parse(&args(&["frobnicate"])).is_err());
    assert!(Command::parse(&args(&["uncover"])).is_err());
    assert!(Command::parse(&args(&["uncover", "--machine", "four"])).is_err());
    assert!(Command::parse(&args(&["uncover", "--machine", "4", "--ablate", "magic"])).is_err());
    assert!(Command::parse(&args(&["hammer", "--machine", "1", "--tool", "hope"])).is_err());
    assert!(Command::parse(&args(&["decode", "--machine", "1"])).is_err());
    // Each flag is bound once: a repeated flag is refused, not resolved to
    // its first value, and a flag name is never taken as another's value.
    for (line, needle) in [
        (
            vec![
                "decode",
                "--machine",
                "4",
                "--addr",
                "0x10",
                "--addr",
                "0x20",
            ],
            "`--addr` is given twice",
        ),
        (
            vec!["uncover", "--machine", "4", "--checkpoint", "--resume"],
            "`--checkpoint` requires a value, not the flag `--resume`",
        ),
        (
            vec![
                "uncover",
                "--machine",
                "4",
                "--checkpoint",
                "d",
                "--resume",
                "--resume",
            ],
            "`--resume` is given twice",
        ),
    ] {
        let err = Command::parse(&args(&line)).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains(needle)),
            "{line:?}: {err}"
        );
    }
}

#[test]
fn machine_numbers_outside_one_to_nine_are_refused_not_truncated() {
    // 260 must not wrap onto machine No.4 (260 mod 256).
    for machine in ["260", "0", "10"] {
        for line in [
            vec!["uncover", "--machine", machine],
            vec!["compare", "--machine", machine],
            vec!["hammer", "--machine", machine],
            vec!["decode", "--machine", machine, "--addr", "0x3fe4c40"],
        ] {
            let err = Command::parse(&args(&line)).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(msg) if msg.contains("1..=9")),
                "{line:?}: {err}"
            );
        }
    }
    // `--tests` is refused rather than truncated to 32 bits.
    assert!(Command::parse(&args(&[
        "hammer",
        "--machine",
        "1",
        "--tests",
        "4294967298"
    ]))
    .is_err());
}

#[test]
fn compare_hammer_decode_and_validate_reject_unknown_flags() {
    for line in [
        vec!["compare", "--machine", "1", "--seed", "2"],
        vec!["hammer", "--machine", "1", "--test", "2"],
        vec!["decode", "--machine", "1", "--addr", "0", "--adr", "1"],
        vec![
            "validate", "--funcs", "(6)", "--rows", "1~2", "--cols", "0", "--col", "1",
        ],
    ] {
        let err = Command::parse(&args(&line)).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("unknown flag")),
            "{line:?}: {err}"
        );
    }
}

#[test]
fn list_machines_mentions_all_nine() {
    let out = execute(&Command::ListMachines).unwrap();
    for n in 1..=9 {
        assert!(out.contains(&format!("No.{n}")), "{out}");
    }
}

#[test]
fn decode_round_trips_and_validates_range() {
    let out = execute(&Command::Decode {
        machine: 4,
        addr: 0x1234_5678,
    })
    .unwrap();
    assert!(out.contains("bank"));
    assert!(execute(&Command::Decode {
        machine: 4,
        addr: u64::MAX
    })
    .is_err());
    assert!(execute(&Command::Decode {
        machine: 42,
        addr: 0
    })
    .is_err());
}

#[test]
fn validate_accepts_table_ii_and_rejects_garbage() {
    let ok = execute(&Command::Validate {
        funcs: "(13, 16), (14, 17), (15, 18)".into(),
        rows: "16~31".into(),
        cols: "0~12".into(),
    })
    .unwrap();
    assert!(ok.contains("valid mapping"));
    assert!(ok.contains("banks: 8"));
    assert!(execute(&Command::Validate {
        funcs: "(13, 16)".into(),
        rows: "16~31".into(),
        cols: "0~12".into(),
    })
    .is_err());
}

#[test]
fn uncover_runs_on_a_small_machine() {
    let out = execute(&Command::Uncover {
        trace: None,
        metrics: None,
        machine: 4,
        seed: 1,
        ablate: None,
        checkpoint: None,
        resume: false,
        budget: None,
        observables: vec![ObservableKind::ConflictTiming],
    })
    .unwrap();
    assert!(out.contains("matches"));
    assert!(out.contains("recovered mapping"));
}

#[test]
fn usage_mentions_every_sub_command() {
    let text = usage();
    for cmd in [
        "uncover",
        "compare",
        "hammer",
        "decode",
        "validate",
        "eval",
        "list-machines",
        "campaign run",
        "campaign resume",
        "campaign status",
        "campaign query",
        "campaign mapreduce",
        "campaign worker",
        "campaign dlq",
        "registry import",
        "registry gen",
        "registry query",
        "registry stats",
        "serve",
    ] {
        assert!(text.contains(cmd), "usage must mention `{cmd}`");
    }
}

#[test]
fn registry_and_serve_parse() {
    assert_eq!(
        Command::parse(&args(&[
            "registry",
            "import",
            "--campaign",
            "t2",
            "--registry",
            "reg"
        ]))
        .unwrap(),
        Command::Registry(RegistryAction::Import {
            campaign_dir: "t2".into(),
            registry_dir: "reg".into(),
            shards: 4,
            crash_after: None,
        })
    );
    assert_eq!(
        Command::parse(&args(&[
            "registry",
            "import",
            "--campaign",
            "t2",
            "--registry",
            "reg",
            "--shards",
            "7",
            "--crash-after",
            "1",
        ]))
        .unwrap(),
        Command::Registry(RegistryAction::Import {
            campaign_dir: "t2".into(),
            registry_dir: "reg".into(),
            shards: 7,
            crash_after: Some(1),
        })
    );
    assert_eq!(
        Command::parse(&args(&[
            "registry",
            "gen",
            "--registry",
            "reg",
            "--grid",
            "ci"
        ]))
        .unwrap(),
        Command::Registry(RegistryAction::Gen {
            registry_dir: "reg".into(),
            grid: Some(GridKind::Ci),
            count: None,
            seed: 1,
            shards: 4,
        })
    );
    assert_eq!(
        Command::parse(&args(&[
            "registry",
            "gen",
            "--registry",
            "reg",
            "--count",
            "12",
            "--seed",
            "5"
        ]))
        .unwrap(),
        Command::Registry(RegistryAction::Gen {
            registry_dir: "reg".into(),
            grid: None,
            count: Some(12),
            seed: 5,
            shards: 4,
        })
    );
    assert_eq!(
        Command::parse(&args(&[
            "registry",
            "query",
            "--registry",
            "reg",
            "--func",
            "(13, 16)"
        ]))
        .unwrap(),
        Command::Registry(RegistryAction::Query {
            registry_dir: "reg".into(),
            func: Some("(13, 16)".into()),
            fingerprint: None,
            nearest: None,
            k: 3,
        })
    );
    assert_eq!(
        Command::parse(&args(&[
            "registry",
            "query",
            "--registry",
            "reg",
            "--nearest",
            "(13, 16)",
            "--k",
            "2"
        ]))
        .unwrap(),
        Command::Registry(RegistryAction::Query {
            registry_dir: "reg".into(),
            func: None,
            fingerprint: None,
            nearest: Some("(13, 16)".into()),
            k: 2,
        })
    );
    assert_eq!(
        Command::parse(&args(&["registry", "stats", "--registry", "reg"])).unwrap(),
        Command::Registry(RegistryAction::Stats {
            registry_dir: "reg".into(),
        })
    );
    assert_eq!(
        Command::parse(&args(&[
            "serve",
            "--registry",
            "reg",
            "--input",
            "q.txt",
            "--metrics",
            "m.txt"
        ]))
        .unwrap(),
        Command::Serve {
            registry: "reg".into(),
            input: Some("q.txt".into()),
            metrics: Some("m.txt".into()),
        }
    );
    // Malformed registry command lines fail loudly.
    assert!(Command::parse(&args(&["registry"])).is_err());
    assert!(Command::parse(&args(&["registry", "frobnicate"])).is_err());
    assert!(Command::parse(&args(&["registry", "gen", "--registry", "reg"])).is_err());
    assert!(Command::parse(&args(&[
        "registry",
        "gen",
        "--registry",
        "reg",
        "--grid",
        "ci",
        "--count",
        "3"
    ]))
    .is_err());
    assert!(Command::parse(&args(&[
        "registry",
        "gen",
        "--registry",
        "reg",
        "--count",
        "0"
    ]))
    .is_err());
    assert!(Command::parse(&args(&[
        "registry",
        "import",
        "--campaign",
        "t2",
        "--registry",
        "reg",
        "--shards",
        "0"
    ]))
    .is_err());
    assert!(Command::parse(&args(&["registry", "query", "--registry", "reg"])).is_err());
    assert!(Command::parse(&args(&[
        "registry",
        "query",
        "--registry",
        "reg",
        "--func",
        "(1)",
        "--fingerprint",
        "00",
    ]))
    .is_err());
    assert!(Command::parse(&args(&["serve"])).is_err());
    assert!(Command::parse(&args(&["serve", "--registry", "reg", "--port", "1"])).is_err());
}

#[test]
fn eval_parses_and_rejects_bad_flags() {
    assert_eq!(
        Command::parse(&args(&["eval", "--grid", "ci"])).unwrap(),
        Command::Eval {
            trace: None,
            metrics: None,
            grid: GridKind::Ci,
            seed: 1,
            workers: 4,
            out: None,
            history: None,
            observables: vec![ObservableKind::ConflictTiming],
        }
    );
    assert_eq!(
        Command::parse(&args(&[
            "eval",
            "--grid",
            "quick",
            "--seed",
            "9",
            "--workers",
            "2",
            "--out",
            "sb.txt",
            "--history",
            "hist.txt"
        ]))
        .unwrap(),
        Command::Eval {
            trace: None,
            metrics: None,
            grid: GridKind::Quick,
            seed: 9,
            workers: 2,
            out: Some("sb.txt".into()),
            history: Some("hist.txt".into()),
            observables: vec![ObservableKind::ConflictTiming],
        }
    );
    assert!(Command::parse(&args(&["eval"])).is_err());
    assert!(Command::parse(&args(&["eval", "--grid", "huge"])).is_err());
    // The 1,000-scenario benchmark grid is not a command-line preset.
    for line in [
        vec!["eval", "--grid", "big"],
        vec!["registry", "gen", "--registry", "reg", "--grid", "big"],
    ] {
        let err = Command::parse(&args(&line)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown --grid `big` (expected quick, ci or full)",
            "{line:?}"
        );
    }
    assert!(Command::parse(&args(&["eval", "--grid", "ci", "--workers", "0"])).is_err());
    assert!(Command::parse(&args(&["eval", "--grid", "ci", "--grids", "x"])).is_err());
}

#[test]
fn observables_flag_parses_and_budget_zero_is_rejected_up_front() {
    // The channel list parses on both sub-commands, deduplicated and
    // order-preserving.
    let both = vec![
        ObservableKind::ConflictTiming,
        ObservableKind::FlipAdjacency,
    ];
    match Command::parse(&args(&[
        "eval",
        "--grid",
        "ci",
        "--observables",
        "timing,flip-adjacency,timing",
    ]))
    .unwrap()
    {
        Command::Eval { observables, .. } => assert_eq!(observables, both),
        other => panic!("parsed {other:?}"),
    }
    match Command::parse(&args(&[
        "uncover",
        "--machine",
        "4",
        "--observables",
        "flip-adjacency",
    ]))
    .unwrap()
    {
        Command::Uncover { observables, .. } => {
            assert_eq!(observables, vec![ObservableKind::FlipAdjacency]);
        }
        other => panic!("parsed {other:?}"),
    }
    // Unknown channels and empty lists are usage errors naming the
    // known channels.
    let err =
        Command::parse(&args(&["eval", "--grid", "ci", "--observables", "psychic"])).unwrap_err();
    assert!(err.to_string().contains("flip-adjacency"), "{err}");
    assert!(Command::parse(&args(&["eval", "--grid", "ci", "--observables", ","])).is_err());

    // `--budget 0` can never run a phase: rejected at parse time with a
    // clear message instead of surfacing as a mid-run interruption.
    let err = Command::parse(&args(&["uncover", "--machine", "4", "--budget", "0"])).unwrap_err();
    assert!(
        matches!(&err, CliError::Usage(msg) if msg.contains("at least 1")),
        "{err}"
    );
    assert!(Command::parse(&args(&["uncover", "--machine", "4", "--budget", "1"])).is_ok());
}

#[test]
fn eval_quick_grid_writes_a_deterministic_scoreboard() {
    let out_a = std::env::temp_dir().join(format!("dramdig-eval-a-{}", std::process::id()));
    let out_b = std::env::temp_dir().join(format!("dramdig-eval-b-{}", std::process::id()));
    let hist = std::env::temp_dir().join(format!("dramdig-eval-hist-{}", std::process::id()));
    let run = |path: &std::path::Path, workers: usize| {
        execute(&Command::Eval {
            trace: None,
            metrics: None,
            grid: GridKind::Quick,
            seed: 1,
            workers,
            out: Some(path.to_str().unwrap().to_string()),
            history: Some(hist.to_str().unwrap().to_string()),
            observables: vec![ObservableKind::ConflictTiming],
        })
        .unwrap()
    };
    let stdout_a = run(&out_a, 4);
    let stdout_b = run(&out_b, 1);
    let file_a = std::fs::read_to_string(&out_a).unwrap();
    let file_b = std::fs::read_to_string(&out_b).unwrap();
    assert_eq!(file_a, file_b, "scoreboard must be byte-identical");
    assert_eq!(stdout_a, file_a);
    assert_eq!(stdout_b, file_b);
    assert!(file_a.contains("gate = PASS"), "{file_a}");
    // The second identical run must not duplicate the history line.
    let history = std::fs::read_to_string(&hist).unwrap();
    assert_eq!(history.lines().count(), 1, "{history}");
    assert!(
        history.starts_with("grid=quick seed=1 observables=timing | gate=PASS"),
        "{history}"
    );
    std::fs::remove_file(&out_a).unwrap();
    std::fs::remove_file(&out_b).unwrap();
    std::fs::remove_file(&hist).unwrap();
}

#[test]
fn eval_telemetry_artifacts_are_byte_identical_across_runs() {
    let base = std::env::temp_dir().join(format!("dramdig-eval-telem-{}", std::process::id()));
    let path = |name: &str| base.join(name).to_str().unwrap().to_string();
    std::fs::create_dir_all(&base).unwrap();
    let run = |tag: &str, workers: usize| {
        execute(&Command::Eval {
            grid: GridKind::Quick,
            seed: 1,
            workers,
            out: None,
            history: None,
            observables: vec![ObservableKind::ConflictTiming],
            trace: Some(path(&format!("{tag}.json"))),
            metrics: Some(path(&format!("{tag}.txt"))),
        })
        .unwrap()
    };
    run("a", 4);
    run("b", 1);
    let trace_a = std::fs::read_to_string(base.join("a.json")).unwrap();
    let trace_b = std::fs::read_to_string(base.join("b.json")).unwrap();
    assert_eq!(trace_a, trace_b, "trace must not depend on worker count");
    let metrics_a = std::fs::read_to_string(base.join("a.txt")).unwrap();
    let metrics_b = std::fs::read_to_string(base.join("b.txt")).unwrap();
    assert_eq!(metrics_a, metrics_b, "metrics must not depend on workers");
    assert!(trace_a.starts_with("[\n"), "{trace_a}");
    assert!(trace_a.contains("\"cat\":\"eval_cell\""), "{trace_a}");
    // Pool counters merged in next to the outcome-derived ones.
    assert!(
        metrics_a.contains("counter eval_cells_total 32"),
        "{metrics_a}"
    );
    assert!(
        metrics_a.contains("counter pool_completed_total 32"),
        "{metrics_a}"
    );
    assert!(
        metrics_a.contains("gauge pool_queue_depth 32"),
        "{metrics_a}"
    );
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn uncover_telemetry_artifacts_are_deterministic() {
    let base = std::env::temp_dir().join(format!("dramdig-uncover-telem-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let run = |tag: &str| {
        let trace = base.join(format!("{tag}.json"));
        let metrics = base.join(format!("{tag}.txt"));
        execute(&Command::Uncover {
            machine: 4,
            seed: 1,
            ablate: None,
            checkpoint: None,
            resume: false,
            budget: None,
            observables: vec![ObservableKind::ConflictTiming],
            trace: Some(trace.to_str().unwrap().to_string()),
            metrics: Some(metrics.to_str().unwrap().to_string()),
        })
        .unwrap();
        (
            std::fs::read_to_string(trace).unwrap(),
            std::fs::read_to_string(metrics).unwrap(),
        )
    };
    let (trace_a, metrics_a) = run("a");
    let (trace_b, metrics_b) = run("b");
    assert_eq!(trace_a, trace_b, "same-seed traces must be byte-identical");
    assert_eq!(metrics_a, metrics_b);
    // Spans for every phase, plus the fine-grained oracle batches that
    // `--trace` switches on.
    for needle in [
        "\"name\":\"calibration\"",
        "\"name\":\"validation\"",
        "\"cat\":\"oracle_batch\"",
    ] {
        assert!(trace_a.contains(needle), "missing {needle}");
    }
    assert!(
        metrics_a.contains("counter measurements_total "),
        "{metrics_a}"
    );
    std::fs::remove_dir_all(&base).unwrap();
}

/// Table-driven coverage of the whole parse surface: each row is a
/// command line and either the command it must parse to or `None` for a
/// usage error.
#[test]
fn parse_table_covers_campaign_and_existing_flags() {
    fn spec(machines: Vec<u8>) -> CampaignSpec {
        CampaignSpec {
            machines,
            seeds: vec![1],
            profiles: vec![Profile::Optimized],
            ablations: vec![None],
            max_retries: 2,
        }
    }
    let table: Vec<(&[&str], Option<Command>)> = vec![
        // --- campaign run: defaults, ranges, explicit dimensions -------
        (
            &["campaign", "run", "--dir", "t2", "--machines", "1-9"],
            Some(Command::Campaign(CampaignAction::Run {
                trace: None,
                metrics: None,
                dir: "t2".into(),
                spec: spec(vec![1, 2, 3, 4, 5, 6, 7, 8, 9]),
                workers: 4,
                limit: None,
            })),
        ),
        (
            &[
                "campaign",
                "run",
                "--dir",
                "d",
                "--machines",
                "4,7",
                "--workers",
                "8",
                "--limit",
                "3",
            ],
            Some(Command::Campaign(CampaignAction::Run {
                trace: None,
                metrics: None,
                dir: "d".into(),
                spec: spec(vec![4, 7]),
                workers: 8,
                limit: Some(3),
            })),
        ),
        (
            &[
                "campaign",
                "run",
                "--dir",
                "d",
                "--machines",
                "1,3-5",
                "--seeds",
                "1,2",
                "--profiles",
                "naive,optimized",
                "--ablations",
                "none,sysinfo",
                "--retries",
                "0",
            ],
            Some(Command::Campaign(CampaignAction::Run {
                trace: None,
                metrics: None,
                dir: "d".into(),
                spec: CampaignSpec {
                    machines: vec![1, 3, 4, 5],
                    seeds: vec![1, 2],
                    profiles: vec![Profile::Naive, Profile::Optimized],
                    ablations: vec![None, Some(campaign::Ablation::SystemInfo)],
                    max_retries: 0,
                },
                workers: 4,
                limit: None,
            })),
        ),
        // --- campaign resume/status/query ------------------------------
        (
            &["campaign", "resume", "--dir", "t2"],
            Some(Command::Campaign(CampaignAction::Resume {
                dir: "t2".into(),
                workers: 4,
                limit: None,
            })),
        ),
        (
            &[
                "campaign",
                "resume",
                "--dir",
                "t2",
                "--workers",
                "2",
                "--limit",
                "1",
            ],
            Some(Command::Campaign(CampaignAction::Resume {
                dir: "t2".into(),
                workers: 2,
                limit: Some(1),
            })),
        ),
        (
            &["campaign", "status", "--dir", "t2"],
            Some(Command::Campaign(CampaignAction::Status {
                dir: "t2".into(),
            })),
        ),
        (
            &["campaign", "query", "--dir", "t2", "--func", "(13, 16)"],
            Some(Command::Campaign(CampaignAction::Query {
                dir: "t2".into(),
                func: "(13, 16)".into(),
            })),
        ),
        // --- campaign mapreduce/worker/dlq ------------------------------
        (
            &[
                "campaign",
                "mapreduce",
                "--dir",
                "grid",
                "--scenarios",
                "1000",
            ],
            Some(Command::Campaign(CampaignAction::Mapreduce {
                dir: "grid".into(),
                spec: campaign::mapreduce::GridSpec {
                    scenarios: 1000,
                    seed: 1,
                    profile: Profile::Fast,
                    max_retries: 1,
                },
                processes: 4,
                transport: MapTransport::Process,
                inject_kill: None,
                history: None,
                metrics: None,
            })),
        ),
        (
            &[
                "campaign",
                "mapreduce",
                "--dir",
                "grid",
                "--scenarios",
                "24",
                "--seed",
                "7",
                "--profile",
                "optimized",
                "--retries",
                "2",
                "--processes",
                "3",
                "--transport",
                "sim",
                "--inject-kill",
                "1:2",
                "--history",
                "h.txt",
            ],
            Some(Command::Campaign(CampaignAction::Mapreduce {
                dir: "grid".into(),
                spec: campaign::mapreduce::GridSpec {
                    scenarios: 24,
                    seed: 7,
                    profile: Profile::Optimized,
                    max_retries: 2,
                },
                processes: 3,
                transport: MapTransport::Sim,
                inject_kill: Some((1, 2)),
                history: Some("h.txt".into()),
                metrics: None,
            })),
        ),
        (
            &["campaign", "worker"],
            Some(Command::Campaign(CampaignAction::Worker {
                inject_kill: None,
            })),
        ),
        (
            &["campaign", "worker", "--inject-kill", "2"],
            Some(Command::Campaign(CampaignAction::Worker {
                inject_kill: Some(2),
            })),
        ),
        (
            &["campaign", "dlq", "list", "--dir", "grid"],
            Some(Command::Campaign(CampaignAction::Dlq {
                dir: "grid".into(),
                op: DlqOp::List,
                job: None,
            })),
        ),
        (
            &[
                "campaign",
                "dlq",
                "inspect",
                "--dir",
                "grid",
                "--job",
                "g0007-s1-fast",
            ],
            Some(Command::Campaign(CampaignAction::Dlq {
                dir: "grid".into(),
                op: DlqOp::Inspect,
                job: Some("g0007-s1-fast".into()),
            })),
        ),
        (
            &["campaign", "dlq", "retry", "--dir", "grid"],
            Some(Command::Campaign(CampaignAction::Dlq {
                dir: "grid".into(),
                op: DlqOp::Retry,
                job: None,
            })),
        ),
        (
            &[
                "campaign",
                "dlq",
                "reprocess",
                "--dir",
                "grid",
                "--job",
                "g0007-s1-fast",
            ],
            Some(Command::Campaign(CampaignAction::Dlq {
                dir: "grid".into(),
                op: DlqOp::Reprocess,
                job: Some("g0007-s1-fast".into()),
            })),
        ),
        // --- mapreduce/worker/dlq usage errors --------------------------
        (&["campaign", "mapreduce", "--dir", "grid"], None), // no --scenarios
        (
            &["campaign", "mapreduce", "--dir", "g", "--scenarios", "0"],
            None,
        ),
        (
            &[
                "campaign",
                "mapreduce",
                "--dir",
                "g",
                "--scenarios",
                "4",
                "--transport",
                "carrier-pigeon",
            ],
            None,
        ),
        (
            &[
                "campaign",
                "mapreduce",
                "--dir",
                "g",
                "--scenarios",
                "4",
                "--inject-kill",
                "2",
            ],
            None, // missing worker:request separator
        ),
        (&["campaign", "worker", "--inject-kill"], None), // value-less flag
        (&["campaign", "dlq"], None),
        (&["campaign", "dlq", "purge", "--dir", "g"], None),
        (&["campaign", "dlq", "inspect", "--dir", "g"], None), // no --job
        (&["campaign", "dlq", "list"], None),                  // no --dir
        // --- campaign usage errors -------------------------------------
        (&["campaign"], None),
        (&["campaign", "launch"], None),
        (&["campaign", "run", "--machines", "1-9"], None), // no --dir
        (&["campaign", "run", "--dir", "d"], None),        // no --machines
        (
            &["campaign", "run", "--dir", "d", "--machines", "9-1"],
            None,
        ),
        (&["campaign", "run", "--dir", "d", "--machines", "x"], None),
        // 260 must not truncate onto machine 4 (260 % 256).
        (
            &["campaign", "run", "--dir", "d", "--machines", "260"],
            None,
        ),
        (&["campaign", "run", "--dir", "d", "--machines", "0"], None),
        // Misspelled flags must fail up front, not run a default sweep.
        (
            &[
                "campaign",
                "run",
                "--dir",
                "d",
                "--machines",
                "4",
                "--profile",
                "naive",
            ],
            None,
        ),
        (
            &["campaign", "run", "--dir", "d", "--machines", "4", "stray"],
            None,
        ),
        (&["campaign", "run", "--dir", "d", "--machines"], None),
        (
            &["campaign", "resume", "--dir", "d", "--machines", "4"],
            None,
        ),
        (
            &["campaign", "status", "--dir", "d", "--workers", "2"],
            None,
        ),
        (&["campaign", "query", "--dir", "d", "--funcs", "(6)"], None),
        (
            &["campaign", "run", "--dir", "d", "--machines", "1-300"],
            None,
        ),
        (&["campaign", "run", "--dir", "d", "--machines", ","], None),
        (
            &[
                "campaign",
                "run",
                "--dir",
                "d",
                "--machines",
                "4",
                "--profiles",
                "warp",
            ],
            None,
        ),
        (
            &[
                "campaign",
                "run",
                "--dir",
                "d",
                "--machines",
                "4",
                "--ablations",
                "warp",
            ],
            None,
        ),
        (
            &[
                "campaign",
                "run",
                "--dir",
                "d",
                "--machines",
                "4",
                "--workers",
                "0",
            ],
            None,
        ),
        (
            &[
                "campaign",
                "run",
                "--dir",
                "d",
                "--machines",
                "4",
                "--seeds",
                ",",
            ],
            None,
        ),
        (&["campaign", "resume"], None),
        (&["campaign", "status"], None),
        (&["campaign", "query", "--dir", "t2"], None),
        // --- existing sub-commands stay intact -------------------------
        (
            &["uncover", "--machine", "4", "--seed", "9"],
            Some(Command::Uncover {
                trace: None,
                metrics: None,
                machine: 4,
                seed: 9,
                ablate: None,
                checkpoint: None,
                resume: false,
                budget: None,
                observables: vec![ObservableKind::ConflictTiming],
            }),
        ),
        (
            &["uncover", "--machine", "0x4", "--ablate", "empirical"],
            Some(Command::Uncover {
                trace: None,
                metrics: None,
                machine: 4,
                seed: 0xD16,
                ablate: Some(Ablation::Empirical),
                checkpoint: None,
                resume: false,
                budget: None,
                observables: vec![ObservableKind::ConflictTiming],
            }),
        ),
        (
            &[
                "uncover",
                "--machine",
                "4",
                "--checkpoint",
                "ckpt",
                "--budget",
                "600",
            ],
            Some(Command::Uncover {
                trace: None,
                metrics: None,
                machine: 4,
                seed: 0xD16,
                ablate: None,
                checkpoint: Some("ckpt".into()),
                resume: false,
                budget: Some(600),
                observables: vec![ObservableKind::ConflictTiming],
            }),
        ),
        (
            &[
                "uncover",
                "--machine",
                "4",
                "--checkpoint",
                "ckpt",
                "--resume",
            ],
            Some(Command::Uncover {
                trace: None,
                metrics: None,
                machine: 4,
                seed: 0xD16,
                ablate: None,
                checkpoint: Some("ckpt".into()),
                resume: true,
                budget: None,
                observables: vec![ObservableKind::ConflictTiming],
            }),
        ),
        // --resume without --checkpoint has nothing to resume from.
        (&["uncover", "--machine", "4", "--resume"], None),
        (&["uncover", "--machine", "4", "--budget", "lots"], None),
        // Misspelled stateful flags must fail loudly, not silently run
        // an uncheckpointed pipeline.
        (&["uncover", "--machine", "4", "--chekpoint", "d"], None),
        (
            &[
                "uncover",
                "--machine",
                "4",
                "--checkpoint",
                "d",
                "--budjet",
                "600",
            ],
            None,
        ),
        (&["uncover", "--machine", "4", "stray"], None),
        (
            &["compare", "--machine", "2"],
            Some(Command::Compare { machine: 2 }),
        ),
        (
            &["hammer", "--machine", "1", "--tool", "truth"],
            Some(Command::Hammer {
                machine: 1,
                tool: HammerTool::Truth,
                tests: 1,
            }),
        ),
        (
            &["decode", "--machine", "6", "--addr", "64"],
            Some(Command::Decode {
                machine: 6,
                addr: 64,
            }),
        ),
        (&["list-machines"], Some(Command::ListMachines)),
        (&["help"], Some(Command::Help)),
        (&["uncover"], None),
        (&["uncover", "--machine", "four"], None),
        (&["hammer", "--machine", "1", "--tool", "hope"], None),
        (&["frobnicate"], None),
        // --- telemetry flags on uncover, eval and campaign run ---------
        (
            &[
                "uncover",
                "--machine",
                "4",
                "--trace",
                "trace.json",
                "--metrics",
                "metrics.txt",
            ],
            Some(Command::Uncover {
                machine: 4,
                seed: 0xD16,
                ablate: None,
                checkpoint: None,
                resume: false,
                budget: None,
                observables: vec![ObservableKind::ConflictTiming],
                trace: Some("trace.json".into()),
                metrics: Some("metrics.txt".into()),
            }),
        ),
        (
            &["eval", "--grid", "ci", "--trace", "trace.json"],
            Some(Command::Eval {
                grid: GridKind::Ci,
                seed: 1,
                workers: 4,
                out: None,
                history: None,
                observables: vec![ObservableKind::ConflictTiming],
                trace: Some("trace.json".into()),
                metrics: None,
            }),
        ),
        (
            &[
                "campaign",
                "run",
                "--dir",
                "t2",
                "--machines",
                "4",
                "--metrics",
                "metrics.txt",
            ],
            Some(Command::Campaign(CampaignAction::Run {
                dir: "t2".into(),
                spec: spec(vec![4]),
                workers: 4,
                limit: None,
                trace: None,
                metrics: Some("metrics.txt".into()),
            })),
        ),
        // Misspelled telemetry flags fail loudly instead of silently
        // running without the requested artifact.
        (&["uncover", "--machine", "4", "--traces", "t.json"], None),
        (&["eval", "--grid", "ci", "--metric", "m.txt"], None),
        (
            &[
                "campaign",
                "run",
                "--dir",
                "d",
                "--machines",
                "4",
                "--trace-out",
                "t.json",
            ],
            None,
        ),
    ];
    for (words, expected) in table {
        let parsed = Command::parse(&args(words));
        match expected {
            Some(command) => {
                assert_eq!(parsed.ok(), Some(command), "while parsing {words:?}")
            }
            None => {
                let err = parsed.expect_err(&format!("{words:?} must be rejected"));
                assert!(
                    matches!(err, CliError::Usage(_)),
                    "{words:?} must be a usage error, got {err:?}"
                );
            }
        }
    }
}

#[test]
fn uncover_checkpoint_budget_resume_lifecycle() {
    let dir = std::env::temp_dir().join(format!("dramdig-cli-uncover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_str = dir.to_str().unwrap().to_string();
    let uncover = |checkpoint: Option<String>, resume: bool, budget: Option<u64>| {
        execute(&Command::Uncover {
            trace: None,
            metrics: None,
            machine: 4,
            seed: 1,
            ablate: None,
            checkpoint,
            resume,
            budget,
            observables: vec![ObservableKind::ConflictTiming],
        })
    };

    // Budget kills the run after the partition; the interruption is a
    // report, not an error, and names the resume command.
    let out = uncover(Some(dir_str.clone()), false, Some(600)).unwrap();
    assert!(out.contains("interrupted before"), "{out}");
    assert!(out.contains("--resume"), "{out}");
    assert!(dir.join("02-partition.phase").exists());

    // Resuming without a prior checkpoint in a fresh dir is refused.
    let err = uncover(Some(format!("{dir_str}-nope")), true, None).unwrap_err();
    assert!(err.to_string().contains("no checkpoint"), "{err}");

    // A different run (other machine/ablation) must not adopt the dir.
    let err = execute(&Command::Uncover {
        trace: None,
        metrics: None,
        machine: 7,
        seed: 1,
        ablate: None,
        checkpoint: Some(dir_str.clone()),
        resume: true,
        budget: None,
        observables: vec![ObservableKind::ConflictTiming],
    })
    .unwrap_err();
    assert!(err.to_string().contains("different run"), "{err}");

    // Resume completes, and the report is byte-identical to an
    // uninterrupted run of the same seed.
    let resumed = uncover(Some(dir_str.clone()), true, None).unwrap();
    let straight = uncover(None, false, None).unwrap();
    assert_eq!(resumed, straight);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn campaign_lifecycle_run_interrupt_resume_status_query() {
    let dir = std::env::temp_dir().join(format!("dramdig-cli-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_str = dir.to_str().unwrap().to_string();
    let spec = CampaignSpec {
        machines: vec![4, 7],
        seeds: vec![1],
        profiles: vec![Profile::Fast],
        ablations: vec![None],
        max_retries: 2,
    };

    // Run with --limit 1: an interrupted campaign.
    let out = execute(&Command::Campaign(CampaignAction::Run {
        trace: None,
        metrics: None,
        dir: dir_str.clone(),
        spec: spec.clone(),
        workers: 1,
        limit: Some(1),
    }))
    .unwrap();
    assert!(out.contains("1/2 jobs completed"), "{out}");
    assert!(out.contains("campaign resume"), "{out}");

    // Status sees the pending half.
    let out = execute(&Command::Campaign(CampaignAction::Status {
        dir: dir_str.clone(),
    }))
    .unwrap();
    assert!(out.contains("1/2 completed"), "{out}");
    assert!(out.contains("pending"), "{out}");

    // Re-running with a different spec is refused.
    let err = execute(&Command::Campaign(CampaignAction::Run {
        trace: None,
        metrics: None,
        dir: dir_str.clone(),
        spec: CampaignSpec {
            machines: vec![4],
            ..spec.clone()
        },
        workers: 1,
        limit: None,
    }))
    .unwrap_err();
    assert!(err.to_string().contains("different campaign"), "{err}");

    // Resume finishes the rest.
    let out = execute(&Command::Campaign(CampaignAction::Resume {
        dir: dir_str.clone(),
        workers: 2,
        limit: None,
    }))
    .unwrap();
    assert!(out.contains("2/2 jobs completed"), "{out}");
    assert!(out.contains("distinct mappings"), "{out}");

    // Query the store for machine 4's bank function.
    let out = execute(&Command::Campaign(CampaignAction::Query {
        dir: dir_str.clone(),
        func: "(13, 16)".into(),
    }))
    .unwrap();
    assert!(out.contains("machines sharing it: No.4"), "{out}");
    let out = execute(&Command::Campaign(CampaignAction::Query {
        dir: dir_str.clone(),
        func: "(2, 3)".into(),
    }))
    .unwrap();
    assert!(out.contains("no machine shares it"), "{out}");
    assert!(execute(&Command::Campaign(CampaignAction::Query {
        dir: dir_str.clone(),
        func: "(13, 16), (14, 17)".into(),
    }))
    .is_err());

    // A truncated/corrupt store.txt must not make the campaign
    // unqueryable: the query rebuilds from the journal.
    std::fs::write(dir.join("store.txt"), "[mapping]\nfuncs = (13,").unwrap();
    let out = execute(&Command::Campaign(CampaignAction::Query {
        dir: dir_str.clone(),
        func: "(13, 16)".into(),
    }))
    .unwrap();
    assert!(out.contains("machines sharing it: No.4"), "{out}");

    // Status/resume on a directory without a campaign fail cleanly.
    assert!(execute(&Command::Campaign(CampaignAction::Status {
        dir: format!("{dir_str}-nope"),
    }))
    .is_err());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn campaign_status_reads_a_mapreduce_grid_directory() {
    let dir = std::env::temp_dir().join(format!("dramdig-cli-grid-status-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_str = dir.to_str().unwrap().to_string();
    let spec = campaign::mapreduce::GridSpec {
        scenarios: 2,
        seed: 1,
        profile: Profile::Fast,
        max_retries: 0,
    };
    let status = || {
        execute(&Command::Campaign(CampaignAction::Status {
            dir: dir_str.clone(),
        }))
    };

    // A grid whose spec is persisted but whose jobs never ran: both
    // are pending at their first attempt.
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("grid.spec"), spec.encode()).unwrap();
    let out = status().unwrap();
    assert!(out.contains("0/2 completed, 0 dead, 2 pending"), "{out}");
    assert!(
        out.contains("pending g0000-s1-fast (next attempt 1)"),
        "{out}"
    );

    let out = execute(&Command::Campaign(CampaignAction::Mapreduce {
        dir: dir_str.clone(),
        spec: spec.clone(),
        processes: 2,
        transport: MapTransport::Sim,
        inject_kill: None,
        history: None,
        metrics: None,
    }))
    .unwrap();
    assert!(out.contains("2/2 jobs completed"), "{out}");

    // The drained grid reports every job done and its mappings.
    let out = status().unwrap();
    assert!(out.contains("2/2 completed, 0 dead, 0 pending"), "{out}");
    assert!(!out.contains("pending g"), "{out}");

    // `campaign query` rebuilds the grid's store from its merged
    // journal, so a corrupt or missing store.txt answers the same.
    let store_path = dir.join("store.txt");
    let store =
        registry::MemRegistry::decode(&std::fs::read_to_string(&store_path).unwrap()).unwrap();
    let func = store.entries().next().unwrap().mapping.bank_funcs()[0].to_string();
    let query = || {
        execute(&Command::Campaign(CampaignAction::Query {
            dir: dir_str.clone(),
            func: func.clone(),
        }))
    };
    let answer = query().unwrap();
    assert!(answer.contains("machines sharing it: gen-"), "{answer}");
    std::fs::write(&store_path, "[mapping]\nfuncs = (13,").unwrap();
    assert_eq!(query().unwrap(), answer);
    std::fs::remove_file(&store_path).unwrap();
    assert_eq!(query().unwrap(), answer);

    // A corrupt grid spec is an error, not a silent fallback.
    std::fs::write(dir.join("grid.spec"), "scenarios = many\n").unwrap();
    assert!(status()
        .unwrap_err()
        .to_string()
        .contains("corrupt grid spec"));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mapreduce_lifecycle_with_kill_and_dlq_requeue() {
    let dir = std::env::temp_dir().join(format!("dramdig-cli-mapreduce-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_str = dir.to_str().unwrap().to_string();
    let spec = campaign::mapreduce::GridSpec {
        scenarios: 8,
        seed: 1,
        profile: Profile::Fast,
        max_retries: 0,
    };
    let history = dir.join("history.txt");
    let mapreduce = |inject_kill, with_history: bool| {
        Command::Campaign(CampaignAction::Mapreduce {
            dir: dir_str.clone(),
            spec: spec.clone(),
            processes: 3,
            transport: MapTransport::Sim,
            inject_kill,
            history: with_history.then(|| history.to_str().unwrap().to_string()),
            metrics: None,
        })
    };

    // Three simulated workers, one killed mid-phase on its second job:
    // the grid still finishes (7 ok + the wide-function dead letter).
    let out = execute(&mapreduce(Some((0, 2)), true)).unwrap();
    assert!(out.contains("7/8 jobs completed"), "{out}");
    assert!(out.contains("1 dead-lettered"), "{out}");
    assert!(out.contains("campaign dlq list"), "{out}");
    let board = std::fs::read_to_string(dir.join("SCOREBOARD.txt")).unwrap();
    assert!(
        board.contains("g0007-s1-fast [wide-function] dead"),
        "{board}"
    );
    assert_eq!(
        std::fs::read_to_string(&history).unwrap().lines().count(),
        1
    );

    // A different spec in the same directory is refused.
    let err = execute(&Command::Campaign(CampaignAction::Mapreduce {
        dir: dir_str.clone(),
        spec: campaign::mapreduce::GridSpec {
            scenarios: 9,
            ..spec.clone()
        },
        processes: 1,
        transport: MapTransport::Sim,
        inject_kill: None,
        history: None,
        metrics: None,
    }))
    .unwrap_err();
    assert!(err.to_string().contains("different grid"), "{err}");

    // The DLQ is listable and inspectable.
    let out = execute(&Command::Campaign(CampaignAction::Dlq {
        dir: dir_str.clone(),
        op: DlqOp::List,
        job: None,
    }))
    .unwrap();
    assert!(out.contains("1 job(s)"), "{out}");
    assert!(out.contains("g0007-s1-fast"), "{out}");
    let out = execute(&Command::Campaign(CampaignAction::Dlq {
        dir: dir_str.clone(),
        op: DlqOp::Inspect,
        job: Some("g0007-s1-fast".into()),
    }))
    .unwrap();
    assert!(out.contains("next retry attempt: 2"), "{out}");
    assert!(execute(&Command::Campaign(CampaignAction::Dlq {
        dir: dir_str.clone(),
        op: DlqOp::Inspect,
        job: Some("g0000-s1-fast".into()),
    }))
    .is_err());

    // Retry puts the job back in play; the re-run dead-letters it again
    // (wide functions always refuse), now at attempt 2 — a genuine board
    // change, so the re-run skips the history gate.
    let out = execute(&Command::Campaign(CampaignAction::Dlq {
        dir: dir_str.clone(),
        op: DlqOp::Retry,
        job: None,
    }))
    .unwrap();
    assert!(out.contains("requeued 1 job(s) for retry"), "{out}");
    let dlq_txt = std::fs::read_to_string(dir.join("dlq.txt")).unwrap();
    assert!(dlq_txt.contains("# jobs = 0"), "{dlq_txt}");
    let out = execute(&mapreduce(None, false)).unwrap();
    assert!(out.contains("1 dead-lettered"), "{out}");
    let board = std::fs::read_to_string(dir.join("SCOREBOARD.txt")).unwrap();
    assert!(board.contains("dead attempts=2"), "{board}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn registry_gen_query_serve_lifecycle() {
    let base = std::env::temp_dir().join(format!("dramdig-cli-registry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let reg = base.join("reg").to_str().unwrap().to_string();
    let gen = Command::Registry(RegistryAction::Gen {
        registry_dir: reg.clone(),
        grid: None,
        count: Some(6),
        seed: 1,
        shards: 3,
    });

    // Seed the registry from generated machines ...
    let out = execute(&gen).unwrap();
    assert!(out.contains("across 3 shards"), "{out}");
    // ... and a re-run appends nothing: every attribution is present.
    let out = execute(&gen).unwrap();
    assert!(out.contains("appended 0 of 6"), "{out}");

    let out = execute(&Command::Registry(RegistryAction::Stats {
        registry_dir: reg.clone(),
    }))
    .unwrap();
    assert!(out.contains("across 3 shards"), "{out}");
    assert!(out.contains("orphans: none"), "{out}");

    // Pick a stored entry and query it back through every one-shot form.
    let shared = registry::SharedRegistry::open(&reg).unwrap();
    let snap = shared.snapshot();
    let entry = snap.mem.entries().next().unwrap();
    let func = entry.mapping.bank_funcs()[0];
    let out = execute(&Command::Registry(RegistryAction::Query {
        registry_dir: reg.clone(),
        func: None,
        fingerprint: Some(format!("{:016x}", entry.fingerprint)),
        nearest: None,
        k: 3,
    }))
    .unwrap();
    assert!(
        out.contains(&format!("fingerprint {:016x}: found", entry.fingerprint)),
        "{out}"
    );
    let out = execute(&Command::Registry(RegistryAction::Query {
        registry_dir: reg.clone(),
        func: Some(func.to_string()),
        fingerprint: None,
        nearest: None,
        k: 3,
    }))
    .unwrap();
    assert!(
        out.contains(&format!("entry = {:016x}", entry.fingerprint)),
        "{out}"
    );
    assert!(out.contains("machines sharing it:"), "{out}");
    let out = execute(&Command::Registry(RegistryAction::Query {
        registry_dir: reg.clone(),
        func: None,
        fingerprint: None,
        nearest: Some(func.to_string()),
        k: 2,
    }))
    .unwrap();
    assert!(out.contains("nearest k=2"), "{out}");
    assert!(
        out.contains(&format!("hit = {:016x}", entry.fingerprint)),
        "{out}"
    );

    // A serve session over the same registry is byte-deterministic and
    // leaves its latency/work counters in the metrics sidecar only.
    let input = base.join("requests.txt");
    std::fs::write(
        &input,
        format!(
            "# smoke session\nsharing {func}\nlookup {:016x}\nstats\nquit\n",
            entry.fingerprint
        ),
    )
    .unwrap();
    let serve = |tag: &str| {
        let metrics = base.join(format!("metrics-{tag}.txt"));
        let out = execute(&Command::Serve {
            registry: reg.clone(),
            input: Some(input.to_str().unwrap().to_string()),
            metrics: Some(metrics.to_str().unwrap().to_string()),
        })
        .unwrap();
        (out, std::fs::read_to_string(metrics).unwrap())
    };
    let (out_a, metrics_a) = serve("a");
    let (out_b, _) = serve("b");
    assert_eq!(out_a, out_b, "serve sessions must be byte-deterministic");
    assert!(out_a.contains("ok stats"), "{out_a}");
    assert!(out_a.contains("ok quit"), "{out_a}");
    assert!(!out_a.contains("latency"), "{out_a}");
    assert!(metrics_a.contains("registry_requests_total"), "{metrics_a}");

    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn registry_import_crash_and_recovery() {
    let base = std::env::temp_dir().join(format!("dramdig-cli-reg-import-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let camp = base.join("camp").to_str().unwrap().to_string();
    let reg = base.join("reg").to_str().unwrap().to_string();
    execute(&Command::Campaign(CampaignAction::Run {
        trace: None,
        metrics: None,
        dir: camp.clone(),
        spec: CampaignSpec {
            machines: vec![4],
            seeds: vec![1],
            profiles: vec![Profile::Fast],
            ablations: vec![None],
            max_retries: 2,
        },
        workers: 1,
        limit: None,
    }))
    .unwrap();
    let import = |crash_after: Option<usize>| {
        execute(&Command::Registry(RegistryAction::Import {
            campaign_dir: camp.clone(),
            registry_dir: reg.clone(),
            shards: 2,
            crash_after,
        }))
    };
    let stats = || {
        execute(&Command::Registry(RegistryAction::Stats {
            registry_dir: reg.clone(),
        }))
        .unwrap()
    };

    // A crash after the segment write but before the manifest publish
    // leaves an orphan file and an empty (still-consistent) registry.
    let err = import(Some(1)).unwrap_err();
    assert!(err.to_string().contains("fault injection"), "{err}");
    let out = stats();
    assert!(out.contains("0 entries"), "{out}");
    assert!(!out.contains("orphans: none"), "{out}");

    // The retried import overwrites the orphan and publishes.
    let out = import(None).unwrap();
    assert!(out.contains("appended 1 of 1"), "{out}");
    let out = stats();
    assert!(out.contains("1 entries"), "{out}");
    assert!(out.contains("orphans: none"), "{out}");

    // The imported campaign answers span queries ...
    let out = execute(&Command::Registry(RegistryAction::Query {
        registry_dir: reg.clone(),
        func: Some("(13, 16)".into()),
        fingerprint: None,
        nearest: None,
        k: 3,
    }))
    .unwrap();
    assert!(out.contains("machines sharing it: No.4"), "{out}");

    // ... and importing again is a no-op.
    let out = import(None).unwrap();
    assert!(out.contains("appended 0 of 1"), "{out}");

    std::fs::remove_dir_all(&base).unwrap();
}
