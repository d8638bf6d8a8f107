"""What the checks share: their seeded inputs, and readers of peak memory.
Only the input generators load numpy, and only when called, so a check can
fork measured children from a small process (see child)."""

import os
import resource
import subprocess
import sys


def own_peak_mb():
    """This process's ru_maxrss in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child(*argv, **env):
    """Run `python *argv` to its end with `env` added to the environment
    (None unsets a variable), and return its stdout and ru_maxrss in MB.
    Fails on a nonzero exit, and in a process that has loaded numpy."""
    assert "numpy" not in sys.modules, "a child's ru_maxrss would start from this process's peak"
    env = {k: v for k, v in {**os.environ, **env}.items() if v is not None}
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE, env=env)
    out = proc.stdout.read().decode()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, (argv, status)
    return out, usage.ru_maxrss / 1024


def domains(n_target):
    """Seeded float32 standard normals, 512-d: 10,350 source rows and
    n_target target rows, the target shifted by 0.05 in place."""
    import numpy as np

    rng = np.random.default_rng(0)
    s = rng.standard_normal((10_350, 512), dtype=np.float32)
    t = rng.standard_normal((n_target, 512), dtype=np.float32)
    t += 0.05
    return s, t


def classes(n_source, n_target, spreads=(1.0,)):
    """A seeded 345-class draw, 512-d: labels ys (each class in turn) and
    yt (uniform), then float32 rows at the class means plus normal noise,
    one source per spread and the target at 1.5: (ys, yt, sources, xt)."""
    import numpy as np

    rng = np.random.default_rng(0)
    means = rng.standard_normal((345, 512))
    ys = np.arange(n_source) % 345
    yt = rng.integers(0, 345, n_target)

    def rows(labels, spread):  # in chunks, so no float64 copy of the target is held
        x = np.empty((labels.shape[0], 512), dtype=np.float32)
        for lo in range(0, labels.shape[0], 10_000):
            y = labels[lo : lo + 10_000]
            x[lo : lo + y.shape[0]] = means[y] + spread * rng.standard_normal((y.shape[0], 512))
        return x

    return ys, yt, [rows(ys, spread) for spread in spreads], rows(yt, 1.5)
