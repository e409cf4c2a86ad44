"""Reference trackers computed from ground truth, plus scripted stand-ins.

Four theoretical trackers probe one sequence property each:

  tta  reports the whole image frame every frame; its accuracy reflects
       the relative size of the target.
  tts  reports the region it was last initialized with; its failure
       count reflects how much the target moves.
  ttf  deliberately signals loss (a zero-area region) on every frame it
       is asked to track, except the final frame of the sequence where
       it reports the ground-truth region; it probes the
       reinitialization machinery and maximizes the failure count at
       floor((N-1)/2).
  tto  reports a box of its first initialization's size centered on the
       annotated target center; its accuracy reflects target size
       change.

Scripted trackers perturb the ground truth with configurable center
noise, scale noise, post-onset drift and random loss; they are the
deterministic-seed workhorses for protocol and analysis tests.

Every behavior is the session the runner drives in process:
handshake(seed) -> (name, deterministic), initialize(frame, path,
region) -> region, frame(frame, path) -> region, quit(), close(). The
caller counts frames, the runner in process and tracker_cli.serve over
the wire, so both modes produce identical output.

BUILTINS, the one registry of these behaviors, maps each kind to the
input it is built from (the ground truth's regions and centers, or the
frame size) and to its constructor. Both `trackbench run --tracker`
and `trackbench-tracker` parse a spec into a BuiltinTracker value, and
both reject parameters on a kind other than scripted. A tracker process
imports this module, so it holds no dataclass; the sequence types it
is built from are in io_formats.
"""

import math
import random
from collections import namedtuple

from .errors import ConfigError, DegenerateAnnotationError
from .geometry import Region, region_center, region_size

__all__ = [
    "THEORETICAL_KINDS",
    "BUILTINS",
    "BuiltinTracker",
    "TrackerBehavior",
    "FullFrameTracker",
    "StaticTracker",
    "SelfFailingTracker",
    "CenterOracleTracker",
    "ScriptedTrackerSpec",
    "parse_scripted_params",
    "ScriptedTracker",
    "theoretical_trajectory",
    "sequence_properties",
    "theoretical_ar_points",
]

THEORETICAL_KINDS = ("tta", "tts", "ttf", "tto")

_new = tuple.__new__
_cos, _sin, _exp, _log, _sqrt = math.cos, math.sin, math.exp, math.log, math.sqrt
_TWOPI = 2.0 * math.pi  # random.gauss's constant

_ZERO_REGION = Region(0.0, 0.0, 0.0, 0.0)


class TrackerBehavior:
    """The in-process session the runner drives (see the module docstring).

    handshake calls the begin(seed) reset hook; quit and close do nothing.
    """

    name = "tracker"
    deterministic = True
    length = math.inf  # frames of its ground truth, if it has one

    def begin(self, seed: int) -> None:
        """Reset all run state; called by handshake before the first frame."""

    def handshake(self, seed: int) -> tuple[str, bool]:
        self.begin(seed)
        return self.name, bool(self.deterministic)

    def initialize(self, frame: int, path: str, region: Region) -> Region:
        raise NotImplementedError

    def frame(self, frame: int, path: str) -> Region:
        raise NotImplementedError

    def quit(self) -> None:
        pass

    close = quit

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


class FullFrameTracker(TrackerBehavior):
    """tta: the whole image frame, every frame."""

    name = "tta"

    def __init__(self, image_size: tuple[float, float]):
        if image_size is None:
            raise ConfigError("tta needs the image size (sequence.meta width/height)")
        self._region = Region(0.0, 0.0, float(image_size[0]), float(image_size[1]))

    def initialize(self, frame: int, path: str, region: Region) -> Region:
        return self._region

    def frame(self, frame: int, path: str) -> Region:
        return self._region


class StaticTracker(TrackerBehavior):
    """tts: whatever region it was last initialized with."""

    name = "tts"

    def begin(self, seed: int) -> None:
        self._held = None

    def initialize(self, frame: int, path: str, region: Region) -> Region:
        self._held = region
        return region

    def frame(self, frame: int, path: str) -> Region:
        return self._held


class SelfFailingTracker(TrackerBehavior):
    """ttf: signals loss on every tracked frame except the sequence's last.

    The zero-area report makes the supervising runner record a failure
    and reinitialize on the next frame, so failures land on every
    second frame. The loss signal is suppressed on the final frame
    (reporting the ground truth instead) because a failure there could
    trigger no reinitialization and would inflate the intervention
    count past floor((N-1)/2).
    """

    name = "ttf"

    def __init__(self, regions: tuple[Region, ...]):
        self._regions = regions
        self.length = len(regions)

    def initialize(self, frame: int, path: str, region: Region) -> Region:
        return region

    def frame(self, frame: int, path: str) -> Region:
        return self._regions[frame - 1] if frame == self.length else _ZERO_REGION


class CenterOracleTracker(TrackerBehavior):
    """tto: fixed-size box glued to the annotated target center.

    The box size locks at the first initialization and stays fixed for
    the whole run, so growth or shrinkage of the target shows up as
    lost overlap.
    """

    name = "tto"

    def __init__(self, regions: tuple[Region, ...], centers=None):
        """centers: the annotated centers, or None to use the regions' own."""
        self._centers = tuple(map(region_center, regions)) if centers is None else centers
        self.length = len(regions)

    def begin(self, seed: int) -> None:
        self._size = None

    def initialize(self, frame: int, path: str, region: Region) -> Region:
        if self._size is None:
            self._size = (region.width, region.height)
        return self.frame(frame, path)

    def frame(self, frame: int, path: str) -> Region:
        cx, cy = self._centers[frame - 1]
        w, h = self._size
        return Region(cx - w / 2.0, cy - h / 2.0, w, h)


class ScriptedTrackerSpec(namedtuple(
    "ScriptedTrackerSpec",
    "name center_noise scale_noise drift_onset drift_velocity loss_prob seed",
    defaults=("scripted", 0.0, 0.0, None, (0.0, 0.0), 0.0, 0),
)):
    """Parameters of a ground-truth-perturbing scripted tracker.

    center_noise: gaussian sigma in pixels added to the reported center.
    scale_noise: sigma of the log size factor (width and height drawn
        independently).
    drift_onset: number of frames after the most recent initialization
        at which the report starts drifting; None disables drift.
    drift_velocity: per-frame (dx, dy) added once drifting.
    loss_prob: per-frame probability of a deliberate loss signal: a
        zero-area region reported at the perturbed center.
    seed: spec-level seed mixed with the per-run seed from the handshake.
    """

    __slots__ = ()


# ScriptedTracker.frame's inline Box-Muller draw never exceeds
# sqrt(-2 ln 2**-53) < 8.58 in magnitude (1 - random() >= 2**-53), so
# exp(draw * scale_noise) stays below math.exp's overflow at 709.78, and
# draw * center_noise far inside the float range (about 1.8e308).
MAX_SCALE_NOISE = 82.0
MAX_CENTER_NOISE = 1e300
_NOISE_BOUNDS = {"scale_noise": MAX_SCALE_NOISE, "center_noise": MAX_CENTER_NOISE}


def parse_scripted_params(text: str) -> ScriptedTrackerSpec:
    """Build a scripted tracker spec from "key=value,key=value" text.

    drift_velocity uses a colon pair (dx:dy) since commas separate
    fields. Unknown keys, a non-finite center_noise, scale_noise,
    loss_prob or drift_velocity component, a scale_noise beyond
    +-MAX_SCALE_NOISE and a center_noise beyond +-MAX_CENTER_NOISE are
    rejected.
    """
    fields: dict = {}
    if text.strip():
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise ConfigError(f"scripted parameter {chunk!r} is not key=value")
            key, value = chunk.split("=", 1)
            key = key.strip()
            value = value.strip()
            try:
                if key == "name":
                    fields[key] = value
                elif key in ("center_noise", "scale_noise", "loss_prob"):
                    fields[key] = float(value)
                    if not math.isfinite(fields[key]):
                        raise ConfigError(f"scripted parameter {key!r} must be finite")
                    if abs(fields[key]) > _NOISE_BOUNDS.get(key, math.inf):
                        raise ConfigError(f"scripted parameter {key!r} must be within "
                                          f"+-{_NOISE_BOUNDS[key]:g}")
                elif key == "drift_onset":
                    fields[key] = None if value.lower() == "none" else int(value)
                elif key == "drift_velocity":
                    dx, dy = value.split(":")
                    fields[key] = (float(dx), float(dy))
                    if not all(map(math.isfinite, fields[key])):
                        raise ConfigError(f"scripted parameter {key!r} must be finite")
                elif key == "seed":
                    fields[key] = int(value)
                else:
                    raise ConfigError(f"unknown scripted parameter {key!r}")
            except ValueError as e:
                raise ConfigError(f"bad scripted parameter {chunk!r}: {e}") from None
    return ScriptedTrackerSpec(**fields)


class ScriptedTracker(TrackerBehavior):
    """Stateful realization of a ScriptedTrackerSpec against one sequence."""

    def __init__(self, spec: ScriptedTrackerSpec, regions: tuple[Region, ...]):
        self._spec = spec
        self._regions = regions
        self.length = len(regions)
        self.name = spec.name

    @property
    def deterministic(self) -> bool:
        s = self._spec
        return s.center_noise == 0.0 and s.scale_noise == 0.0 and s.loss_prob == 0.0

    def begin(self, seed: int) -> None:
        mixed = ((self._spec.seed * 0x9E3779B97F4A7C15) ^ seed) & 0xFFFFFFFFFFFFFFFF
        self._random = random.Random(mixed).random
        self._since_init = 0

    def initialize(self, frame: int, path: str, region: Region) -> Region:
        self._since_init = 0
        return region

    def frame(self, frame: int, path: str) -> Region:
        self._since_init += 1
        _, noise, scale, onset, (vx, vy), loss, _ = self._spec
        # Fixed draw order keeps runs reproducible whatever the params:
        # one uniform for loss, then four standard normals as two
        # Box-Muller pairs, cos then sin, in random.gauss(0.0, 1.0)'s
        # arithmetic, so the stream is the one four gauss calls give.
        draw = self._random
        loss_draw = draw()
        a = draw() * _TWOPI
        r = _sqrt(-2.0 * _log(1.0 - draw()))
        nx = 0.0 + _cos(a) * r
        ny = 0.0 + _sin(a) * r
        a = draw() * _TWOPI
        r = _sqrt(-2.0 * _log(1.0 - draw()))
        sw = 0.0 + _cos(a) * r
        sh = 0.0 + _sin(a) * r
        base = self._regions[frame - 1]
        x, y, w, h = base
        drift_steps = 0 if onset is None else max(0, self._since_init - onset)
        cx = x + w / 2.0 + nx * noise + drift_steps * vx
        cy = y + h / 2.0 + ny * noise + drift_steps * vy
        # Every value below is a float, so Region's coercion is skipped.
        if loss > 0.0 and loss_draw < loss:
            # Loss signal: zero area at the perturbed center, so the report
            # says "lost here" rather than teleporting to the origin.
            return _new(Region, (cx, cy, 0.0, 0.0))
        if noise == 0.0 and scale == 0.0 and drift_steps == 0:
            return base
        w *= _exp(sw * scale)
        h *= _exp(sh * scale)
        return _new(Region, (cx - w / 2.0, cy - h / 2.0, w, h))


# kind -> (the input its behavior is built from: "groundtruth", the
#          ground truth's (regions, centers), "image_size" or None;
#          constructor(scripted parameters or None, that input))
BUILTINS = {
    "tta": ("image_size", lambda params, image_size: FullFrameTracker(image_size)),
    "tts": (None, lambda params, _: StaticTracker()),
    "ttf": ("groundtruth", lambda params, gt: SelfFailingTracker(gt[0])),
    "tto": ("groundtruth", lambda params, gt: CenterOracleTracker(*gt)),
    "scripted": ("groundtruth", lambda params, gt: ScriptedTracker(params, gt[0])),
}


class BuiltinTracker(namedtuple("BuiltinTracker", "kind params")):
    """A built-in tracker spec: a BUILTINS kind, plus parameters for scripted.

    Calling it with a SequenceData builds the behavior, so it is a
    TrackerHandle.in_process factory that pickles and compares by value.
    """

    __slots__ = ()

    def __new__(cls, kind: str, params: ScriptedTrackerSpec | None = None) -> "BuiltinTracker":
        if kind not in BUILTINS:
            raise ConfigError(f"unknown tracker kind {kind!r}")
        return tuple.__new__(cls, (kind, params))

    @classmethod
    def parse(cls, kind: str, params: str | None = None) -> "BuiltinTracker":
        """Spec from a kind and, for scripted only, its key=value text."""
        if kind == "scripted":
            return cls(kind, parse_scripted_params(params or ""))
        if params is not None:
            raise ConfigError(f"tracker kind {kind!r} takes no parameters")
        return cls(kind)

    @property
    def name(self) -> str:
        return self.kind if self.params is None else self.params.name

    def __call__(self, seq: "SequenceData") -> TrackerBehavior:
        needs, build = BUILTINS[self.kind]
        if needs == "groundtruth":
            return build(self.params, (seq.annotation.regions, seq.annotation.centers))
        return build(self.params, None if needs is None else seq.image_size)


def theoretical_trajectory(
    kind: str, a: "SequenceAnnotation", image_size: tuple[float, float] | None = None
) -> tuple[Region, ...]:
    """Single-initialization trajectory of a theoretical tracker.

    Computed directly from the annotation; equals what the stateful
    behavior reports under an unsupervised run.
    """
    n = len(a)
    if kind == "tta":
        if image_size is None:
            raise ConfigError("tta needs the image size")
        r = Region(0.0, 0.0, float(image_size[0]), float(image_size[1]))
        return (r,) * n
    if kind == "tts":
        return (a.regions[0],) * n
    if kind == "ttf":
        regions = [a.regions[0]]
        for t in range(2, n + 1):
            regions.append(a.regions[t - 1] if t == n else _ZERO_REGION)
        return tuple(regions)
    if kind == "tto":
        w, h = a.regions[0].width, a.regions[0].height
        regions = []
        for i in range(n):
            c = a.center(i)
            regions.append(Region(c.x - w / 2.0, c.y - h / 2.0, w, h))
        return tuple(regions)
    raise ConfigError(f"unknown theoretical tracker kind: {kind!r}")


def _probe(kind: str, seq: "SequenceData", span: float) -> tuple[float, float, float]:
    """One supervised run of a theoretical tracker at tau 0, seed 0, scored once.

    Returns (supervised accuracy, tracked accuracy, reliability). The
    supervised accuracy averages overlap with failure frames (None) as 0
    and Init frames excluded, as for evaluated trackers. The tracked
    accuracy averages the record's Region frames only; ttf has none on
    odd-length sequences, and its accuracy there is 1.0 by construction
    (every region it reports on a tracked frame is the ground truth).
    The run is driven in process, which frames no path, so the dataset's
    own frame paths serve, spaces included.
    """
    from .measures import reliability
    from .runner import TrackerHandle, run_supervised
    from .trajectory import score_record

    a = seq.annotation
    handle = TrackerHandle.in_process(kind, BuiltinTracker(kind))
    rec = run_supervised(handle, seq, tau=0.0, seed=0)
    phis = score_record(rec, a).overlaps
    scored = [v for v in phis if v is not None]
    tracked = [v for v, fr in zip(phis, rec.frames) if isinstance(fr, Region)]
    if tracked:
        tracked_acc = math.fsum(tracked) / len(tracked)
    else:
        tracked_acc = 1.0 if kind == "ttf" else float("nan")
    return (
        math.fsum(scored) / len(scored) if scored else float("nan"),
        tracked_acc,
        reliability(len(rec.failure_frames), len(a), span),
    )


def sequence_properties(
    seq: "SequenceData", span: float = 30.0
) -> tuple[float, float, float, float]:
    """Scalar sequence properties probed by the theoretical trackers.

    Returns (size, motion, speed, size_change):
      size        tta supervised average overlap (relative target size);
      motion      tts reliability over `span` frames (closer to 1 =
                  less motion);
      speed       mean per-frame ground-truth center displacement
                  divided by the ground-truth region size (direct
                  kinematic stand-in for the irreproducible
                  failure-probe column);
      size_change tto supervised average overlap (closer to 1 = less
                  size change).
    """
    a = seq.annotation
    size = _probe("tta", seq, span)[0]
    motion = _probe("tts", seq, span)[2]
    size_change = _probe("tto", seq, span)[0]

    if len(a) < 2:
        speed = 0.0
    else:
        steps = []
        for i in range(1, len(a)):
            prev_c = a.center(i - 1)
            cur_c = a.center(i)
            s = region_size(a.regions[i - 1])
            if s <= 0:
                raise DegenerateAnnotationError(
                    "zero-size ground-truth region, speed undefined", frame=i
                )
            steps.append(math.hypot(cur_c.x - prev_c.x, cur_c.y - prev_c.y) / s)
        speed = math.fsum(steps) / len(steps)
    return (size, motion, speed, size_change)


def theoretical_ar_points(
    seqs: "list[SequenceData]", span: float = 30.0
) -> dict[str, tuple[float, float]]:
    """Reference (accuracy, reliability) per theoretical tracker.

    Reference accuracy averages overlap over the record's Region frames
    only: it describes how well each tracker tracks when it is tracking,
    which is what the interpretation corners of the accuracy-reliability
    plot need. This differs deliberately from the supervised accuracy
    of evaluated trackers, where failure frames count as overlap 0. It
    skips a sequence where the kind tracks no frame, as ar_summary does.
    """
    if not seqs:
        return {}
    sums = {k: [0.0, 0, 0.0] for k in THEORETICAL_KINDS}
    for seq in seqs:
        for kind in THEORETICAL_KINDS:
            _, acc, rel = _probe(kind, seq, span)
            if acc == acc:
                sums[kind][0] += acc
                sums[kind][1] += 1
            sums[kind][2] += rel
    n = len(seqs)
    return {k: (acc / m if m else math.nan, rel / n) for k, (acc, m, rel) in sums.items()}
