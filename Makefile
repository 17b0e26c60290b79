PYTHON ?= python

.PHONY: install test bench bench-engine golden repro examples clean lint lint-graph typecheck sweep-oversub-smoke serve-smoke

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -x -q -p no:randomly --ignore=tests/test_examples.py

test-quick:
	$(PYTHON) -m pytest tests/ -x -q -m "not slow" --ignore=tests/test_examples.py

# Determinism & simulation-safety static analysis (rules R001-R013).
# Exit codes: 0 clean, 1 new findings, 2 usage error.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.devtools.lint src scripts --baseline lint-baseline.json

# Index-cache smoke: cold run builds .reprolint-cache.json, warm run
# must reuse it end-to-end (zero reparses) — both dump the import
# graph and exit 0.
lint-graph:
	rm -f .reprolint-cache.json
	PYTHONPATH=src $(PYTHON) -m repro.devtools.lint src scripts --graph > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro.devtools.lint src scripts --graph \
		| $(PYTHON) -c "import json,sys; g=json.load(sys.stdin); \
			assert g['cache']['parsed'] == 0, g['cache']; \
			assert not g['violations'] and not g['cycles'], g['violations'] or g['cycles']; \
			print('warm graph: %d modules, %d edges, cache fully reused' \
				% (len(g['modules']), len(g['edges'])))"

# mypy --strict via the [tool.mypy] config in pyproject.toml (the
# lenient modules are per-module overrides there).  Needs the `dev`
# extra: pip install -e .[dev]
typecheck:
	@$(PYTHON) -c "import mypy" 2>/dev/null \
		|| { echo "mypy not installed — pip install -e .[dev]"; exit 1; }
	$(PYTHON) -m mypy -p repro

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate the committed placement-kernel baseline (quiet machine!).
# Includes the 50k/100k-host scale tier — budget ~30-45 minutes, the
# naive reference arm is milliseconds per event at 100k hosts.
bench-engine:
	$(PYTHON) -m repro bench engine --scale-hosts 50000,100000 \
		-o BENCH_engine.json

# Regenerate the golden decision-trace corpus (tests/fixtures/golden).
golden:
	$(PYTHON) scripts/regen_golden.py

# Dynamic-oversubscription smoke: the StaticRatio no-op contract
# (byte-identical golden traces on both kernels) plus a small strategy
# sweep through the CLI.
sweep-oversub-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/oversub/test_golden_static.py -q
	PYTHONPATH=src $(PYTHON) -m repro oversub --population 60 --seed 3 \
		--update-every 1800

# Online-service smoke: the serving suite, a 30s-virtual-time run at a
# fixed seed (completes in well under a second of wall time) with a
# parseable SLO report and finite p99, and a clean determinism lint on
# the package (no baseline allowance).  Mirrors CI's serving-smoke job.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/serving -q
	PYTHONPATH=src $(PYTHON) -m repro serve --duration 30 --rate 50 \
		--seed 7 --report serving_slo.json
	PYTHONPATH=src $(PYTHON) -c "import json, math; \
		r = json.load(open('serving_slo.json')); \
		p99 = r['latency']['placement_p99_s']; \
		assert math.isfinite(p99) and p99 > 0, p99; \
		print('p99 %.3f ms, %d arrivals' % (p99 * 1e3, r['counts']['arrivals']))"
	PYTHONPATH=src $(PYTHON) -m repro.devtools.lint src/repro/serving

repro:
	$(PYTHON) scripts/reproduce_all.py -o REPORT.md

repro-fast:
	$(PYTHON) scripts/reproduce_all.py --fast -o REPORT.md

examples:
	@for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f || exit 1; done

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis
	rm -f .reprolint-cache.json
	find . -name __pycache__ -type d -exec rm -rf {} +
