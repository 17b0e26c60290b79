PYTHON ?= python

.PHONY: install test test-fast test-quick bench golden repro repro-fast report-check examples clean lint typecheck sweep-oversub-smoke serve-smoke perf-smoke kernel-fence

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -x -q -p no:randomly --ignore=tests/test_examples.py

test-quick:
	$(PYTHON) -m pytest tests/ -x -q -m "not slow" --ignore=tests/test_examples.py

# The structural fences: determinism rules R001-R006 over src and
# scripts, layering, one writer, replay under skewed clocks, callers,
# API docs, the field contract (every numeric dataclass field declares a
# bound).  Also part of `make test`.
lint:
	PYTHONPATH=src $(PYTHON) -m pytest tests/structure -q

# mypy --strict via the [tool.mypy] config in pyproject.toml (the
# lenient modules are per-module overrides there).  Needs the `dev`
# extra: pip install -e .[dev]
typecheck:
	@$(PYTHON) -c "import mypy" 2>/dev/null \
		|| { echo "mypy not installed — pip install -e .[dev]"; exit 1; }
	$(PYTHON) -m mypy -p repro

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The kernel fence: what pins the incremental placement kernel
# (src/repro/simulator/vectorpool.py) to the naive reference, slow tests
# included — test-quick deselects `slow` and with it the kernel fuzz.
# Run it after any edit to the kernel.
kernel-fence:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/simulator/test_kernel_equivalence.py \
		tests/simulator/test_golden_trace.py tests/structure/test_engine_shape.py \
		tests/oversub/test_golden_static.py
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/simulator/test_scale_golden.py -m slow

# Regenerate the golden decision-trace corpus (tests/fixtures/golden).
golden:
	$(PYTHON) scripts/regen_golden.py

# Dynamic-oversubscription smoke: the StaticRatio no-op contract
# (byte-identical golden traces on both kernels), the bit-level pins of
# all four strategies on both engines, and a small strategy sweep
# through the CLI whose cells must equal the recorded fixture.
sweep-oversub-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/oversub/test_golden_static.py \
		tests/oversub/test_strategy_pins.py -q
	PYTHONPATH=src $(PYTHON) -m repro oversub --population 60 --seed 3 \
		--update-every 1800 -o oversub_smoke.json
	diff oversub_smoke.json tests/oversub/data/oversub_smoke.json

# Online-service smoke: the serving suite, the perf
# harness's serve checks (its traced twin drives
# run_virtual(service.run(), clock)), a 30s-virtual-time run at a fixed
# seed (completes in well under a second of wall time) with a
# parseable SLO report and finite p99.  Mirrors CI's serving-smoke job.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/serving -q
	PYTHONPATH=src $(PYTHON) -m pytest perf/tests/test_harness.py -q -k serve
	PYTHONPATH=src $(PYTHON) -m repro serve --duration 30 --rate 50 \
		--seed 7 --report serving_slo.json
	PYTHONPATH=src $(PYTHON) -c "import json, math; \
		r = json.load(open('serving_slo.json')); \
		p99 = r['latency']['placement_p99_s']; \
		assert math.isfinite(p99) and p99 > 0, p99; \
		print('p99 %.3f ms, %d arrivals' % (p99 * 1e3, r['counts']['arrivals']))"

# Perf-ledger smoke: a quarter-size pass over all eight perf/ workloads
# (output digests + conservation checks), the harness's own tests, the
# slow scale-tier conformance streams and the naive-vs-incremental
# kernel ratio (floors + equal result streams; the one number perf/
# never measures).  Mirrors CI's perf-smoke job; numbers worth citing
# come from full `perf/run.py` runs.
perf-smoke:
	PYTHONPATH=src $(PYTHON) perf/run.py --smoke -o perf_smoke.json
	PYTHONPATH=src $(PYTHON) -m pytest perf/tests -q
	PYTHONPATH=src $(PYTHON) -m pytest tests/simulator/test_scale_golden.py -q -m slow
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_engine_kernel_speedup.py -q -s

repro:
	$(PYTHON) scripts/reproduce_all.py -o REPORT.md

repro-fast:
	$(PYTHON) scripts/reproduce_all.py --fast -o REPORT.md

# The Figure 3 / Figure 4 sections of the fast report must equal the
# fixture recorded before `run_sweep` became the only way to run a grid, and
# its dynamic-oversubscription (§VIII) section the one recorded before
# the strategy grid moved onto `run_sweep` too.
# Mirrors the last step of CI's sweep-smoke job.
report-check:
	PYTHONPATH=src $(PYTHON) scripts/reproduce_all.py --fast -o /tmp/report.md
	awk '/^## /{p=/^## Figure [34] /} p' /tmp/report.md \
		| diff -u tests/analysis/data/report_fast_fig34.txt -
	awk '/^## /{p=/^## Dynamic oversubscription /} p' /tmp/report.md \
		| diff -u tests/analysis/data/report_fast_oversub.txt -

examples:
	@for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f || exit 1; done

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
