"""Command-line interface: drive the pipeline on bundled workloads.

::

    python -m repro list
    python -m repro attack heartbleed
    python -m repro analyze heartbleed -o patches.conf
    python -m repro analyze heartbleed --attack attack --attack benign
    python -m repro analyze heartbleed --static -o patches.conf
    python -m repro diagnose --jobs 4 --json diagnosis.json
    python -m repro diagnose --corpus reports/ --jobs 2 -o patches/
    python -m repro defend heartbleed -c patches.conf --input attack
    python -m repro explain heartbleed -c patches.conf
    python -m repro encode heartbleed --strategy incremental
    python -m repro lint --encoding
    python -m repro verify-encoding --spec --json certificates.json
    python -m repro bench --suite serving --baseline BENCH_serving.json

Each command exercises the same public API an embedding application
would use; the CLI exists so the system can be explored without writing
code.  ``bench`` records the throughput numbers that ``python3
perf/run.py``, the end-to-end serving benchmark, does not measure.

Exit codes are uniform across the analysis commands: 0 means clean, 1
means findings (lint errors, uncertified encodings, undetected
vulnerabilities), 2 means usage error (unknown workload/flag).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .ccencoding import Strategy, plans_for_all_strategies
from .core.explain import explain_patch
from .core.pipeline import HeapTherapy
from .defense.patch_table import PatchTable
from .patch import config as patch_config
from .workloads.vulnerable import VulnerableProgram, workload_registry

WORKLOADS = workload_registry()


def _usage_error(message: str) -> SystemExit:
    """Uniform usage-error exit (status 2, matching argparse)."""
    print(message, file=sys.stderr)
    return SystemExit(2)


def _resolve(name: str) -> VulnerableProgram:
    factory = WORKLOADS.get(name.lower())
    if factory is None:
        raise _usage_error(
            f"unknown workload {name!r}; run `python -m repro list`")
    return factory()


def _input_for(program: VulnerableProgram, which: str):
    if which == "attack":
        return program.attack_input()
    if which == "benign":
        return program.benign_input()
    raise _usage_error(
        f"--input must be 'attack' or 'benign', got {which!r}")


def cmd_list(args: argparse.Namespace) -> int:
    """List the bundled workloads."""
    print(f"{'name':<12} {'vulnerability':<16} reference")
    print("-" * 52)
    for name, factory in sorted(WORKLOADS.items()):
        program = factory()
        print(f"{name:<12} {program.vulnerability:<16} {program.reference}")
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    """Run an input against the native (undefended) program."""
    program = _resolve(args.workload)
    system = HeapTherapy(program, strategy=Strategy.from_name(args.strategy))
    run = system.run_native(_input_for(program, args.input))
    print(f"workload: {program.name} ({program.reference})")
    print(f"input:    {args.input}")
    if args.input == "attack":
        print(f"attack succeeded: {program.attack_succeeded(run.result)}")
    else:
        print(f"benign works: {program.benign_works(run.result)}")
    if run.result is not None and run.result.facts:
        print(f"observed: {run.result.facts}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Emit patches: offline attack replay, or static (``--static``).

    ``--attack`` may be given several times; each occurrence replays one
    named input and the per-input outcomes are reported individually.
    Patches from all replays are merged deterministically (duplicate
    contexts take the widest vulnerability mask).
    """
    from .patch.model import merge_patches

    program = _resolve(args.workload)
    system = HeapTherapy(program, strategy=Strategy.from_name(args.strategy))
    if args.static:
        static = system.generate_static_patches()
        print(static.render())
        detected = static.detected
        patches = static.patches
    else:
        inputs = args.attacks or ["attack"]
        groups = []
        detected = False
        for which in inputs:
            generation = system.generate_patches(
                _input_for(program, which))
            print(f"--- input: {which} ---")
            print(generation.report.render())
            print(f"input {which}: "
                  + (f"{len(generation.patches)} patch(es)"
                     if generation.detected
                     else "no vulnerability detected"))
            detected = detected or generation.detected
            groups.append(generation.patches)
        patches = merge_patches(groups)
    if not detected:
        print("no vulnerability detected")
        return 1
    text = patch_config.dumps(patches)
    if args.output:
        patch_config.save(patches, args.output)
        print(f"\nwrote {len(patches)} patch(es) to "
              f"{args.output}")
    else:
        print("\n" + text, end="")
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    """Parallel offline diagnosis of a whole attack corpus."""
    import json
    from pathlib import Path

    from .parallel import DiagnosisPool
    from .workloads.corpus import CorpusError, default_corpus, load_corpus

    if args.jobs < 0:
        raise _usage_error(f"--jobs must be >= 0, got {args.jobs}")
    if args.corpus:
        try:
            corpus = load_corpus(args.corpus)
        except CorpusError as exc:
            raise _usage_error(str(exc))
    else:
        corpus = default_corpus()
    pool = DiagnosisPool(jobs=args.jobs or None,
                         strategy=Strategy.from_name(args.strategy))
    diagnosis = pool.diagnose(corpus)
    print(diagnosis.render())
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written = 0
        for workload in sorted(diagnosis.tables):
            table = diagnosis.tables[workload]
            if not len(table):
                continue
            (out / f"{workload}.conf").write_text(table.serialize(),
                                                  encoding="utf-8")
            written += 1
        print(f"wrote {written} patch config(s) to {out}/")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(diagnosis.to_dict(), handle, indent=1)
            handle.write("\n")
        print(f"wrote diagnosis report to {args.json}")
    failures = diagnosis.failures()
    if failures:
        print(f"{len(failures)} attack entr"
              f"{'y' if len(failures) == 1 else 'ies'} produced no "
              f"patch: " + ", ".join(r.entry_id for r in failures),
              file=sys.stderr)
        return 1
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzzing campaign over generated programs."""
    from .fuzz import run_campaign

    if args.count < 1:
        raise _usage_error(f"--count must be >= 1, got {args.count}")
    if args.jobs < 0:
        raise _usage_error(f"--jobs must be >= 0, got {args.jobs}")
    campaign = run_campaign(args.seed, args.count, jobs=args.jobs,
                            minimize=args.minimize,
                            out_dir=args.out_dir)
    if args.json:
        print(campaign.render())
    else:
        report = campaign.to_json()
        kinds = ", ".join(f"{kind}={count}"
                          for kind, count in report["kinds"].items())
        print(f"fuzz: {report['cases']} case(s) from seed {args.seed}"
              f" ({kinds})")
        print(f"failed: {report['failed']}")
        for failure in report["failures"]:
            print(f"  seed {failure['seed']} [{failure['name']}]:")
            for message in failure["failures"]:
                print(f"    {message}")
    if campaign.reproducers:
        for path in campaign.reproducers:
            print(f"wrote reproducer {path}", file=sys.stderr)
    return 0 if campaign.ok else 1


def cmd_synth(args: argparse.Namespace) -> int:
    """Symbolic attack synthesis: concretize layout plans, then defeat
    them."""
    import json
    from pathlib import Path

    from .fuzz.generator import spec_from_dict
    from .parallel.fanout import resolve_jobs
    from .synth import corpus_of, synthesize_range, synthesize_specs
    from .workloads.corpus import save_corpus

    if args.jobs < 0:
        raise _usage_error(f"--jobs must be >= 0, got {args.jobs}")
    if args.count < 1:
        raise _usage_error(f"--count must be >= 1, got {args.count}")
    resolved_jobs = resolve_jobs(args.jobs)
    plan_kinds = () if args.plan == "all" else (args.plan,)

    if args.specs:
        specs = []
        for path in args.specs:
            try:
                payload = json.loads(
                    Path(path).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise _usage_error(f"--spec {path}: {exc}")
            try:
                # Accept both fuzz reproducer files ({"spec": {...}})
                # and bare spec dictionaries.
                specs.append(spec_from_dict(payload.get("spec", payload)
                                            if isinstance(payload, dict)
                                            else payload))
            except (KeyError, TypeError, ValueError) as exc:
                raise _usage_error(f"--spec {path}: invalid spec: {exc}")
        report = synthesize_specs(specs, jobs=resolved_jobs,
                                  plan_kinds=plan_kinds)
    else:
        report = synthesize_range(args.seed, args.count,
                                  jobs=resolved_jobs,
                                  plan_kinds=plan_kinds)

    print(report.render(verbose=args.verbose))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.render_json())
            handle.write("\n")
        print(f"wrote synthesis report to {args.json}")
    if args.out_dir:
        corpus = corpus_of(report)
        if len(corpus):
            out = save_corpus(corpus, args.out_dir,
                              filename="synth_corpus.json")
            print(f"wrote {len(corpus)} synthesized attack entr"
                  f"{'y' if len(corpus) == 1 else 'ies'} to {out}")
        else:
            print("no attacks concretized; corpus not written")
    gaps = report.gaps
    if gaps:
        for gap in gaps:
            print(f"synthesis gap: {gap}", file=sys.stderr)
        return 1
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Cross-check declared call graphs against program behaviour."""
    from .analysis import lint_program, verify_all

    names = args.workloads or sorted(WORKLOADS)
    failed = 0
    uncertified = 0
    for name in names:
        program = _resolve(name)
        report = lint_program(program,
                              synthesizability=args.synthesizability)
        if not report.ok:
            failed += 1
        if args.verbose or not report.ok or report.warnings:
            print(report.render(verbose=args.verbose))
        else:
            print(f"lint {report.program_name}: OK")
        if args.encoding:
            certificates = verify_all(program)
            bad = [c for c in certificates if not c.certified]
            uncertified += len(bad)
            if bad or args.verbose:
                for certificate in (bad if bad else certificates):
                    print("  " + certificate.render().replace("\n", "\n  "))
            else:
                print(f"  encoding: {len(certificates)} scheme/strategy "
                      f"combo(s) certified")
    print(f"\nlinted {len(names)} workload(s); {failed} with errors"
          + (f"; {uncertified} uncertified encoding combo(s)"
             if args.encoding else ""))
    return 1 if failed or uncertified else 0


def _spec_programs() -> List:
    from .workloads.spec import SPEC_PROFILES, SyntheticSpecProgram
    return [SyntheticSpecProgram(profile) for profile in SPEC_PROFILES]


def cmd_verify_encoding(args: argparse.Namespace) -> int:
    """Statically certify encoding soundness before deployment."""
    import json

    from .analysis import certificates_to_json, verify_all

    programs = [_resolve(name) for name in args.workloads] \
        if args.workloads else [_resolve(name) for name in sorted(WORKLOADS)]
    if args.spec:
        programs.extend(_spec_programs())
    schemes = None if args.scheme == "all" else [args.scheme]
    strategies = (None if args.strategy == "all"
                  else [Strategy.from_name(args.strategy)])

    all_certificates = []
    bad = 0
    for program in programs:
        certificates = verify_all(program, schemes=schemes,
                                  strategies=strategies)
        all_certificates.extend(certificates)
        failing = [c for c in certificates if not c.certified]
        bad += len(failing)
        if failing or args.verbose:
            for certificate in (failing if failing and not args.verbose
                                else certificates):
                print(certificate.render())
        else:
            sites = max(c.instrumented_sites for c in certificates)
            print(f"verify-encoding {program.name}: "
                  f"{len(certificates)} combo(s) certified "
                  f"(<= {sites} instrumented site(s))")
    if args.json:
        payload = certificates_to_json(all_certificates)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=False)
            handle.write("\n")
        print(f"wrote {len(all_certificates)} certificate(s) to "
              f"{args.json}")
    print(f"\nverified {len(programs)} program(s), "
          f"{len(all_certificates)} combo(s); {bad} uncertified")
    return 1 if bad else 0


def cmd_layout(args: argparse.Namespace) -> int:
    """Static heap-layout analysis: adjacency graph + layout plans."""
    import json

    from .analysis import analyze_layout

    names = [name.lower() for name in args.workloads] \
        if args.workloads else sorted(WORKLOADS)
    programs = [_resolve(name) for name in names]
    if args.spec:
        programs.extend(_spec_programs())

    results = []
    total_pairs = 0
    for program in programs:
        result = analyze_layout(program)
        results.append(result)
        total_pairs += len(result.pairs)
        print(result.render(verbose=args.verbose))
    if args.json:
        payload = {"workloads": [result.to_dict() for result in results]}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=False)
            handle.write("\n")
        print(f"wrote {len(results)} layout report(s) to {args.json}")
    print(f"\nanalyzed {len(programs)} program(s); "
          f"{total_pairs} adjacent pair(s)")
    return 1 if total_pairs else 0


def cmd_defend(args: argparse.Namespace) -> int:
    """Run under the online defense with a patch config loaded."""
    program = _resolve(args.workload)
    system = HeapTherapy(program, strategy=Strategy.from_name(args.strategy))
    table = (PatchTable.from_config_file(args.config) if args.config
             else PatchTable.empty())
    run = system.run_defended(table, _input_for(program, args.input))
    print(f"workload: {program.name}, patches loaded: {len(table)}")
    status = 0
    if run.blocked:
        print(f"run BLOCKED by guard page: {run.fault}")
        if args.input == "attack":
            print("attack succeeded: False")
        else:
            status = 1
    elif args.input == "benign":
        works = program.benign_works(run.result)
        print(f"run completed; benign works: {works}")
        status = 0 if works else 1
    else:
        succeeded = program.attack_succeeded(run.result)
        print(f"run completed; attack succeeded: {succeeded}")
        status = 1 if succeeded else 0
    if args.report:
        from .defense.report import DefenseReport
        print()
        print(DefenseReport.from_allocator(run.allocator).render())
    return status


def cmd_explain(args: argparse.Namespace) -> int:
    """Map each configured patch back to its calling context."""
    program = _resolve(args.workload)
    system = HeapTherapy(program, strategy=Strategy.from_name(args.strategy),
                         scheme=args.scheme)
    patches = patch_config.load(args.config)
    for patch in patches:
        explanation = explain_patch(
            program, system.instrumented.codec, patch,
            profile_args=(program.attack_input(),))
        print(explanation.render())
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Print the allocation-context frequency profile."""
    from .allocator.libc import LibcAllocator
    from .core.profiling import AllocationProfile
    from .program.process import Process

    program = _resolve(args.workload)
    system = HeapTherapy(program, strategy=Strategy.from_name(args.strategy))
    profile = AllocationProfile()
    for which in ("attack", "benign"):
        process = Process(program.graph, heap=LibcAllocator(),
                          context_source=system.instrumented.runtime())
        process.run(program, _input_for(program, which))
        profile.ingest(process)
    print(profile.render(limit=args.limit))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the concurrent serving engine (see :mod:`repro.serving`).

    The report on stdout is timing-free and byte-identical for any
    ``--workers`` value (modulo the ``workers`` field itself); wall-
    clock telemetry goes to stderr.  Exit 1 when leaks were observed
    (undefended or unpatched vulnerability), 0 otherwise.
    """
    import json as json_mod

    from .serving import (ServingEngine, ServingError, ServingOptions,
                          default_workers)

    patches_text = ""
    if args.patches:
        try:
            with open(args.patches, "r", encoding="utf-8") as handle:
                patches_text = handle.read()
        except OSError as exc:
            raise _usage_error(f"cannot read patches file: {exc}")
    workers = args.workers if args.workers else default_workers()
    options = ServingOptions(
        service=args.service,
        workers=workers,
        requests=args.requests,
        batch_size=args.batch_size,
        defended=not args.native,
        allocator=args.allocator,
        patches_text=patches_text,
        attack_every=args.attack_every,
    )
    try:
        with ServingEngine(options) as engine:
            result = engine.serve()
    except ServingError as exc:
        raise _usage_error(str(exc))
    text = json_mod.dumps(result.report, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    print(f"served {result.report['served']} requests with "
          f"{workers} worker(s) in {result.seconds:.3f}s "
          f"({result.requests_per_second:.0f} req/s wall, "
          f"{result.total_cycles:.0f} simulated cycles)",
          file=sys.stderr)
    return 1 if result.report["outcomes"].get("leak") else 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run the fleet immunization loop (see :mod:`repro.fleet`).

    The report on stdout is timing-free and byte-identical for any
    ``--jobs`` value; swap-latency and immunization-time telemetry
    goes to stderr.  Exit 0 when every instance proved post-swap
    immunity, 1 when any did not, 2 on a rejected (tampered, replayed
    or wrongly-keyed) snapshot or a usage error — with a typed
    one-line message, never a traceback.
    """
    import json as json_mod

    from .fleet import FleetError, FleetOptions, RegistryError, run_fleet

    options = FleetOptions(
        service=args.service,
        instances=args.instances,
        attacks=args.attacks,
        requests=args.requests,
        batch_size=args.batch_size,
        jobs=args.jobs,
        allocator=args.allocator,
        key_text=args.key,
        tamper=args.tamper,
    )
    try:
        result = run_fleet(options)
    except FleetError as exc:
        raise _usage_error(str(exc))
    except RegistryError as exc:
        raise _usage_error(f"{type(exc).__name__}: {exc}")
    text = json_mod.dumps(result.report, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    telemetry = result.telemetry
    latencies = telemetry["swap_latency"]
    print(f"{options.instances} instance(s) at registry "
          f"v{result.snapshot.version} "
          f"({result.snapshot.content_hash[:12]}…); swap latency "
          f"{min(latencies) * 1e3:.1f}–{max(latencies) * 1e3:.1f} ms; "
          f"fleet immunized in "
          f"{telemetry['immunization_seconds']:.3f}s "
          f"({telemetry['jobs']} job(s))", file=sys.stderr)
    return 0 if result.immune else 1


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the perf-regression harness (see :mod:`repro.bench`)."""
    from .bench.harness import run_bench

    return run_bench(suites=args.suite, scale=args.scale,
                     repeat=args.repeat, out_dir=args.out_dir,
                     baseline=args.baseline,
                     max_regression_pct=args.max_regression,
                     profile=args.profile)


def cmd_encode(args: argparse.Namespace) -> int:
    """Show per-strategy instrumentation statistics."""
    from .core.instrument import instrument

    program = _resolve(args.workload)
    graph = program.graph
    plans = plans_for_all_strategies(graph, graph.allocation_targets)
    print(f"workload: {program.name}; call graph: "
          f"{len(graph.function_names)} functions, {graph.site_count} "
          f"call sites; targets: {', '.join(graph.allocation_targets)}")
    print(f"\n{'strategy':<12} {'sites':>6} {'functions':>10} "
          f"{'inserted bytes':>15}")
    for strategy in Strategy:
        plan = plans[strategy]
        print(f"{strategy.value:<12} {plan.site_count:>6} "
              f"{plan.function_count:>10} {plan.inserted_bytes:>15}")
    print()
    inst = instrument(program, strategy=Strategy.from_name(args.strategy))
    print(inst.verify().render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HeapTherapy+ reproduction command-line interface")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list bundled workloads") \
        .set_defaults(func=cmd_list)

    def common(p):
        p.add_argument("workload", help="workload name (see `list`)")
        p.add_argument("--strategy", default="incremental",
                       help="encoding strategy (fcs/tcs/slim/incremental)")

    p = sub.add_parser("attack", help="run an input against the native "
                                      "program")
    common(p)
    p.add_argument("--input", default="attack",
                   choices=("attack", "benign"))
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser(
        "analyze",
        help="offline patch generation from attack input(s)",
        epilog="exit status: 0 patches generated, 1 no vulnerability "
               "detected, 2 usage error")
    common(p)
    p.add_argument("-o", "--output", help="write the patch config file")
    p.add_argument("--attack", dest="attacks", action="append",
                   choices=("attack", "benign"), metavar="INPUT",
                   help="named input to replay: 'attack' or 'benign'; "
                        "repeatable — each occurrence is replayed and "
                        "reported separately (default: attack)")
    p.add_argument("--static", action="store_true",
                   help="derive speculative patches statically, without "
                        "replaying any attack input")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "diagnose",
        help="multi-process offline diagnosis of an attack corpus",
        description="Fan an attack corpus out over worker processes, "
                    "replay every report under shadow analysis and "
                    "merge the patches into deterministic per-workload "
                    "tables (jobs=N output is bit-identical to "
                    "jobs=1).",
        epilog="exit status: 0 every attack entry diagnosed, 1 some "
               "attack entry produced no patch, 2 usage error")
    p.add_argument("--corpus", metavar="DIR",
                   help="corpus directory of *.json entry files "
                        "(default: the built-in Table II + SAMATE "
                        "attack corpus)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (0 = host CPU count; "
                        "default 1)")
    p.add_argument("--strategy", default="incremental",
                   help="encoding strategy (fcs/tcs/slim/incremental)")
    p.add_argument("-o", "--out-dir", metavar="DIR",
                   help="write one merged patch config per workload "
                        "into DIR")
    p.add_argument("--json", metavar="PATH",
                   help="write the machine-readable diagnosis report")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing of generated vulnerable programs",
        description="Generate seeded program models with planted heap "
                    "bugs and check transparency (empty-table defended "
                    "run identical to the undefended run) and efficacy "
                    "(diagnose-patch-rerun neutralizes the bug; the "
                    "benign twin yields zero patches) for every one. "
                    "Reports are byte-identical for any --jobs value.",
        epilog="exit status: 0 every case passed, 1 property "
               "violation(s) found, 2 usage error")
    p.add_argument("--seed", type=int, default=0,
                   help="first seed of the campaign (default 0)")
    p.add_argument("--count", type=int, default=100,
                   help="number of consecutive seeds (default 100)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (0 = host CPU count; "
                        "default 1)")
    p.add_argument("--minimize", action="store_true",
                   help="shrink failing cases to minimal reproducers "
                        "before writing them")
    p.add_argument("--json", action="store_true",
                   help="print the machine-readable campaign report")
    p.add_argument("-o", "--out-dir", metavar="DIR",
                   help="write fuzz-repro-<seed>.json for each failing "
                        "seed into DIR")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "lint",
        help="verify declared call graphs against program behaviour",
        description="Cross-check each workload's declared call graph "
                    "against its extracted behaviour model.",
        epilog="exit status: 0 clean, 1 findings (lint errors or "
               "uncertified encodings), 2 usage error")
    p.add_argument("workloads", nargs="*",
                   help="workload names (default: all)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also print informational findings")
    p.add_argument("--encoding", action="store_true",
                   help="additionally run the static encoding-soundness "
                        "verifier on every scheme/strategy combination "
                        "per workload")
    p.add_argument("--synthesizability", action="store_true",
                   help="additionally flag allocation sites with "
                        "unbounded size intervals (the attack-synthesis "
                        "solver abstains on them; WARNING severity)")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "synth",
        help="symbolic attack synthesis from static layout plans",
        description="Concretize each seed's static LayoutPlans into "
                    "executable attacks: solve request sizes and the "
                    "overflow length symbolically "
                    "(repro.analysis.symexec), simulate the plan "
                    "against real allocator geometry, validate against "
                    "the native adjacency oracle, then diagnose and "
                    "re-run every synthesized attack under the patched "
                    "defense. Reports are byte-identical for any "
                    "--jobs value; solver abstentions are always "
                    "reported, never silent.",
        epilog="exit status: 0 every concretized attack validated and "
               "defeated, 1 synthesis gap(s) found, 2 usage error")
    p.add_argument("--seed", type=int, default=0,
                   help="first fuzz-generator seed (default 0)")
    p.add_argument("--count", type=int, default=12,
                   help="number of consecutive seeds (default 12)")
    p.add_argument("--spec", dest="specs", action="append",
                   metavar="FILE",
                   help="synthesize from a fuzz spec / reproducer JSON "
                        "file instead of a seed range (repeatable)")
    p.add_argument("--plan", default="all",
                   choices=("all", "sequential", "hole-reuse"),
                   help="restrict to one layout-plan kind "
                        "(default: all)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (0 = host CPU count; "
                        "default 1)")
    p.add_argument("--json", metavar="PATH",
                   help="write the machine-readable synthesis report "
                        "to PATH")
    p.add_argument("-o", "--out-dir", metavar="DIR",
                   help="write the synthesized attack corpus "
                        "(synth_corpus.json, replayable via "
                        "`repro diagnose --corpus DIR`) into DIR")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also print per-plan solver models and "
                        "interleaving steps")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "verify-encoding",
        help="statically certify CCID injectivity, wrap-freedom and "
             "decoder completeness",
        description="Run the value-set soundness verifier "
                    "(repro.analysis.encverify) over scheme/strategy "
                    "combinations and emit machine-readable "
                    "certificates.",
        epilog="exit status: 0 all combinations certified, 1 findings "
               "(a collision counterexample or an unverifiable plan), "
               "2 usage error")
    p.add_argument("workloads", nargs="*",
                   help="workload names (default: all bundled workloads)")
    p.add_argument("--scheme", default="all",
                   choices=("all", "pcc", "pcce", "deltapath"),
                   help="encoding scheme to verify (default: all)")
    p.add_argument("--strategy", default="all",
                   choices=("all", "fcs", "tcs", "slim", "incremental"),
                   help="targeting strategy to verify (default: all)")
    p.add_argument("--spec", action="store_true",
                   help="also verify the synthetic SPEC-like suite")
    p.add_argument("--json", metavar="PATH",
                   help="write the certificates artifact to PATH")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print every certificate, not just failures")
    p.set_defaults(func=cmd_verify_encoding)

    p = sub.add_parser(
        "layout",
        help="static heap-layout analysis: size intervals, lifetimes, "
             "adjacency prediction",
        description="Run the attack-input-free heap-layout pass "
                    "(repro.analysis.layout): per-allocation-site size "
                    "intervals, may-live ranges, the static adjacency "
                    "graph with minimal overflow lengths, and candidate "
                    "layout plans.",
        epilog="exit status: 0 no adjacent pairs, 1 adjacency findings, "
               "2 usage error")
    p.add_argument("workloads", nargs="*",
                   help="workload names (default: all bundled workloads)")
    p.add_argument("--spec", action="store_true",
                   help="also analyze the synthetic SPEC-like suite")
    p.add_argument("--json", metavar="PATH",
                   help="write the layout/adjacency artifact to PATH")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also print per-site summaries and layout plans")
    p.set_defaults(func=cmd_layout)

    p = sub.add_parser("defend", help="run under the online defense")
    common(p)
    p.add_argument("-c", "--config", help="patch configuration file")
    p.add_argument("--input", default="attack",
                   choices=("attack", "benign"))
    p.add_argument("--report", action="store_true",
                   help="print the defense activity report")
    p.set_defaults(func=cmd_defend)

    p = sub.add_parser("explain", help="map patches back to calling "
                                       "contexts")
    common(p)
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--scheme", default="pcc",
                   choices=("pcc", "pcce", "deltapath"))
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("encode", help="instrumentation statistics per "
                                      "strategy")
    common(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("profile", help="allocation-context frequency "
                                       "profile over both inputs")
    common(p)
    p.add_argument("--limit", type=int, default=10,
                   help="contexts to print")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("serve", help="drive a service through the "
                                     "multi-worker serving engine")
    p.add_argument("--service", choices=("nginx", "mysql"),
                   default="nginx", help="served workload")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (0 = host CPU count)")
    p.add_argument("--requests", type=int, default=1024,
                   help="requests to admit")
    p.add_argument("--batch-size", type=int, default=256,
                   help="requests per dispatched batch")
    p.add_argument("--native", action="store_true",
                   help="serve without the defense (baseline)")
    p.add_argument("--allocator", choices=("segregated", "libc"),
                   default="segregated", help="underlying allocator")
    p.add_argument("-c", "--patches", metavar="FILE",
                   help="patch configuration deployed from batch 0")
    p.add_argument("--attack-every", type=int, default=0, metavar="N",
                   help="inject the service's attack request after "
                        "every N benign requests")
    p.add_argument("--json", metavar="PATH",
                   help="write the report to PATH instead of stdout")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("fleet", help="fleet-scale community "
                                     "immunization across N instances")
    p.add_argument("--service", choices=("nginx", "mysql"),
                   default="nginx", help="served workload")
    p.add_argument("--instances", type=int, default=4,
                   help="simulated serving instances")
    p.add_argument("--attacks", type=int, default=4,
                   help="attacks planted per instance stream (>= 2)")
    p.add_argument("--requests", type=int, default=96,
                   help="benign requests per instance")
    p.add_argument("--batch-size", type=int, default=8,
                   help="requests per dispatched batch")
    p.add_argument("--jobs", type=int, default=1,
                   help="instance-level parallelism (0 = host CPUs)")
    p.add_argument("--allocator", choices=("segregated", "libc"),
                   default="segregated", help="underlying allocator")
    p.add_argument("--key", default="repro-fleet-demo-key",
                   metavar="TEXT", help="fleet signing key material")
    p.add_argument("--tamper", choices=("bitflip", "replay",
                                        "wrong-key"),
                   default="", help="corrupt the distribution channel "
                                    "(fault injection)")
    p.add_argument("--json", metavar="PATH",
                   help="write the report to PATH instead of stdout")
    p.set_defaults(func=cmd_fleet)

    from .bench.harness import add_bench_arguments
    p = sub.add_parser("bench", help="run the scaling, diagnosis, fuzz, "
                                     "layout and synth throughput suites; "
                                     "emits BENCH_*.json (service "
                                     "throughput: python3 perf/run.py)")
    add_bench_arguments(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
