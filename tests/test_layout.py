import pytest

from vtcomp.errors import EngineError
from vtcomp.layout import CompressionPlan, InputLayout, layer_schedule, resolve_k


def make_layout(**kw):
    base = dict(kind="image", system_range=(0, 2), visual_range=(2, 10), text_range=(10, 14))
    base.update(kw)
    return InputLayout(**base)


def test_lengths():
    lo = make_layout()
    assert (lo.system_len, lo.visual_len, lo.text_len, lo.seq_len) == (2, 8, 4, 14)


def test_ranges_must_tile():
    with pytest.raises(EngineError, match=r"tile the sequence without gaps or overlap \(break at position 11\)"):
        make_layout(text_range=(11, 14))
    with pytest.raises(EngineError, match=r"tile the sequence without gaps or overlap \(break at position 10\)"):
        make_layout(visual_range=(2, 11))
    with pytest.raises(EngineError, match=r"tile the sequence without gaps or overlap \(break at position 16\)"):
        make_layout(visual_range=(0, 8), text_range=(8, 14), system_range=(16, 16))


def test_text_before_visual_is_allowed():
    lo = InputLayout(kind="image", system_range=(0, 2), text_range=(2, 6), visual_range=(6, 14))
    assert lo.visual_len == 8


def test_anyres_structure():
    lo = make_layout(kind="anyres", thumbnail_range=(0, 4), crop_ranges=((4, 8),))
    assert lo.thumbnail_range == (0, 4)
    with pytest.raises(EngineError, match=r"thumbnail and crop ranges must tile the visual tokens \(break at 5\)"):
        make_layout(kind="anyres", thumbnail_range=(0, 4), crop_ranges=((5, 8),))
    with pytest.raises(EngineError, match="thumbnail/crop ranges cover 6 of 8 visual tokens"):
        make_layout(kind="anyres", thumbnail_range=(0, 4), crop_ranges=((4, 6),))
    with pytest.raises(EngineError, match="anyres requires thumbnail_range and a list of crop_ranges"):
        make_layout(kind="anyres")


def test_anyres_empty_thumbnail_rejected():
    # The crops alone tile the visual tokens, so only the empty-thumbnail
    # rule rejects this layout.
    with pytest.raises(EngineError, match="^layout: anyres thumbnail_range is empty$"):
        make_layout(kind="anyres", thumbnail_range=(0, 0), crop_ranges=((0, 8),))


def test_video_structure():
    lo = make_layout(kind="video", frames=2, tokens_per_frame=4)
    assert lo.frames * lo.tokens_per_frame == lo.visual_len
    with pytest.raises(EngineError, match=r"frames\*tokens_per_frame = 9 != visual count 8"):
        make_layout(kind="video", frames=3, tokens_per_frame=3)
    with pytest.raises(EngineError, match=r"^layout: frames\*tokens_per_frame = <more than 4300 digits> "
                                          r"!= visual count 8$"):
        make_layout(kind="video", frames=10**3000, tokens_per_frame=10**3000)


def test_resolve_k_paper_anchors():
    assert resolve_k(CompressionPlan(retain_ratio=0.10), 2880) == 288
    assert resolve_k(CompressionPlan(retain_ratio=0.25), 2880) == 720


def test_resolve_k_clamps():
    assert resolve_k(CompressionPlan(retain_k=10), 4) == 4
    assert resolve_k(CompressionPlan(retain_ratio=0.001), 10) == 1


def test_resolve_k_half_up():
    assert resolve_k(CompressionPlan(retain_ratio=0.25), 10) == 3  # 2.5 rounds up
    assert resolve_k(CompressionPlan(retain_ratio=0.24), 10) == 2


def test_resolve_k_bounds_property():
    plan = CompressionPlan(retain_ratio=0.37)
    for m in range(1, 200):
        assert 1 <= resolve_k(plan, m) <= m


def test_resolve_k_requires_exactly_one():
    with pytest.raises(EngineError, match="exactly one of retain_k / retain_ratio must be set"):
        resolve_k(CompressionPlan(), 10)
    with pytest.raises(EngineError, match="exactly one of retain_k / retain_ratio must be set"):
        resolve_k(CompressionPlan(retain_k=2, retain_ratio=0.5), 10)


def test_layer_schedule_values():
    assert layer_schedule(32) == [16, 20, 24, 28]
    assert layer_schedule(8) == [4, 5, 6, 7]
    assert layer_schedule(40) == [20, 25, 30, 35]


def test_layer_schedule_too_shallow():
    with pytest.raises(EngineError, match="layer_schedule: need at least 8 layers, got 7"):
        layer_schedule(7)


def test_layer_schedule_second_half():
    for n_layers in range(8, 128):
        sched = layer_schedule(n_layers)
        assert all(i >= n_layers // 2 for i in sched)
        assert len(sched) == 4 and sched == sorted(set(sched))
        assert all(i < n_layers for i in sched)


def test_plan_validation():
    with pytest.raises(EngineError, match="plan: retain_k must be >= 1, got 0"):
        CompressionPlan(retain_k=0)
    with pytest.raises(EngineError, match=r"plan: retain_ratio must be in \(0, 1\], got 1.5"):
        CompressionPlan(retain_ratio=1.5)
    with pytest.raises(EngineError, match=r"plan: tau must be in \[0, 1\], got 1.2"):
        CompressionPlan(tau=1.2)
    with pytest.raises(EngineError, match="plan: schedule indices must be strictly increasing"):
        CompressionPlan(schedule=(4, 4, 8))
    with pytest.raises(EngineError, match="plan: schedule index beyond num_layers"):
        CompressionPlan(schedule=(4, 40), num_layers=32)


def test_plan_roundtrip():
    plan = CompressionPlan(retain_ratio=0.1, tau=0.05, schedule=(16, 20), num_layers=32)
    assert CompressionPlan.from_dict(plan.to_dict()) == plan
    # The set fields, in the report's key order.
    assert list(plan.to_dict()) == ["tau", "retain_ratio", "schedule", "num_layers"]
    assert CompressionPlan(retain_k=3).to_dict() == {"tau": 0.03, "retain_k": 3}


@pytest.mark.parametrize("drop, named", [
    (("kind", "text_range"), "kind"),
    (("visual_range", "system_range"), "system_range"),
    (("text_range",), "text_range"),
])
def test_layout_names_its_first_missing_field(drop, named):
    full = {"kind": "image", "system_range": [0, 2], "visual_range": [2, 10], "text_range": [10, 14]}
    with pytest.raises(EngineError, match=f"^layout: missing field '{named}'$"):
        InputLayout.from_dict({k: v for k, v in full.items() if k not in drop})
