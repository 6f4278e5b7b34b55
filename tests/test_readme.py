"""README's JSON examples load through the readers they document, so the
documented format and the one JSON reader cannot drift apart."""

import json
import pathlib
import re

import pytest

import skewcast as sc

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
# each `cat > <name>.json <<'EOF'` heredoc by file name, and each ```json block
HEREDOCS = dict(re.findall(r"cat > (\S+\.json) <<'EOF'\n(.*?)\nEOF\n", README, re.S))
JSON_BLOCKS = re.findall(r"```json\n(.*?)```", README, re.S)
READERS = {"gen.json": sc.GenConfig, "learner.json": sc.LearnerConfig,
           "plan.json": sc.BacktestPlan}


def test_every_heredoc_has_a_reader():
    assert set(HEREDOCS) == set(READERS)


@pytest.mark.parametrize("name", sorted(READERS))
def test_heredoc_loads(name):
    record = READERS[name].from_json(json.loads(HEREDOCS[name]))
    assert READERS[name].from_json(record.to_json()) == record


def test_json_blocks_are_custom_arms():
    """Every ```json block in the README is an arm JSON."""
    assert JSON_BLOCKS
    for block in JSON_BLOCKS:
        arm = sc.ExperimentArm.from_json(json.loads(block))
        assert arm.id not in {a.id for a in sc.standard_arms()}
