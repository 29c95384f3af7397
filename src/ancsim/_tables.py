"""CSV tables: every value as CPython's %.17g, the fast tables streamed from
a forked writer while the arms run, and the period tables shared with it.

``_write_columns`` writes any table of equal-length columns, and
``load_u_blocks`` reads a u_blocks.csv table back. ``_period_columns``
lays out an arm's period tables (discrete.csv, taps.csv, u_blocks.csv).
``_write_fast`` writes the fast.csv tables of one or more arms of one
record, formatting their shared columns once. ``_FastWriter`` runs it in a
forked process fed by the arm loop's progress, or in this process where
forking is unsafe; either process then writes whichever period table is
next. Every run table goes through ``_write_columns`` or ``_write_fast``,
so its bytes do not depend on the process that wrote it.
"""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np

from .config import ConfigError
from .lifting import ExogenousRecord


# Values per chunk that ``_write_columns`` formats, in the main process: a
# wide table gets proportionally fewer rows. A chunk's fields and bytes take
# 64 KiB each, and the kernel's temporaries 16-48 KiB; 4000-value chunks
# wrote about 10% faster but left about 0.3 MB more peak RSS behind on
# held_check, whose tables this process writes.
_CHUNK_VALUES = 2048
# Values per chunk of ``_write_fast``, which runs in the forked writer
# (here only where nothing forks), whose memory no command reports. On
# compare_long's 512000 values the kernel took about 110 ns a value at 2048,
# 85 at 4096 and 8192, and 145 at 16384; the whole write took the least at
# 8192. The writer's peak RSS is about 1.3 MB above what 2048 left (31.7 ->
# 33.0 MB on compare_long).
_FAST_CHUNK_VALUES = 8192
# Chunks of fewer values are formatted value by value: the kernel's fixed
# cost, about 0.15 ms a call, exceeds CPython's per-value cost below about
# 150-200 values (a 20-row sweep table has 140).
_KERNEL_MIN_VALUES = 256


@contextlib.contextmanager
def _sized_by(key: str, what: str):
    """Raise numpy's failure to allocate arrays sized by ``key`` (a MemoryError,
    or a ValueError past the address space) as a ConfigError naming ``key``."""
    try:
        yield
    except (ConfigError, np.linalg.LinAlgError):
        raise
    except (MemoryError, ValueError) as exc:
        raise ConfigError(key, f"cannot hold {what}: {exc}") from None


def _format_values(values: np.ndarray, fields: np.ndarray) -> None:
    """``'%.17g' % x`` of each value, NUL-padded into its 32-byte row of ``fields``.

    A chunk of at least ``_KERNEL_MIN_VALUES`` goes through the array kernel
    of ``ancsim._g17``, loaded on first use; the values it leaves, and every
    value of a smaller chunk, are formatted one at a time.
    """
    slow = slice(None)
    if values.size >= _KERNEL_MIN_VALUES:
        from . import _g17

        slow = _g17.format_fields(values, fields)
        values = values[slow]
    if values.size:
        text = np.array(["%.17g" % x for x in values.tolist()], dtype="S32")
        fields[slow] = text.view(np.uint64).reshape(-1, 4)


def _separate(fields: np.ndarray) -> None:
    """End each of the (rows, columns, 4) fields with its separator: a comma,
    and a newline after the last column."""
    last = fields.view(np.uint8)[:, :, -1]
    last[:] = ord(",")
    last[:, -1] = ord("\n")


def _write_columns(path: str, header: list[str], columns) -> None:
    """Write equal-length 1-D columns as CSV, streamed in row chunks.

    Every number prints as CPython's ``'%.17g' % float(x)``, which for
    integers and booleans up to 2^53 is also their ``%d``. Each value takes
    one 32-byte field of one reused buffer: its text NUL-padded to 31 bytes,
    then the separator. A chunk of about ``_CHUNK_VALUES`` values is
    formatted at a time, and its NUL padding deleted as it is written.
    Text columns, and integer columns past 2^53, are encoded into their
    fields instead (31 bytes at most). A key/value table passes
    ``zip(*items)``, so its values form one float64 column.
    """
    columns = [np.asarray(c) for c in columns]
    text = {j: np.array([str(x).encode("utf-8") for x in c.tolist()], dtype=bytes)
            for j, c in enumerate(columns)
            if c.dtype.kind == "U"
            or c.dtype.kind in "iu" and c.size and (c.min() < -2**53 or c.max() > 2**53)}
    if any(enc.itemsize > 31 for enc in text.values()):
        raise ValueError("text entries longer than 31 bytes")
    numbers = [np.zeros(len(c)) if j in text else c for j, c in enumerate(columns)]
    n_rows, n_cols = len(columns[0]), len(columns)
    rows = max(1, _CHUNK_VALUES // n_cols)
    buf = np.empty((min(rows, n_rows), n_cols, 4), np.uint64)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, n_rows, rows):
            chunk = buf[:min(rows, n_rows - start)]
            stop = start + len(chunk)
            values = np.stack([c[start:stop] for c in numbers], axis=1, dtype=np.float64)
            _format_values(values.reshape(-1), chunk.reshape(-1, 4))
            for j, enc in text.items():
                chunk[:, j] = enc[start:stop].astype("S32").view(np.uint64).reshape(-1, 4)
            _separate(chunk)
            fh.write(chunk.tobytes().translate(None, b"\0"))


def load_u_blocks(path: str) -> np.ndarray:
    """Read back a u_blocks.csv table (inverse of ``run_to_csv``'s writer).

    The header must be ``n,u_0,...,u_{k-1}`` with k >= 1, every row hold
    1 + k finite numbers and the n column read 0, 1, 2, ... in order;
    anything else raises ``ValueError`` naming the file.
    """
    with open(path, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines() or [""]
    names = header.split(",")
    if len(names) < 2 or names != ["n"] + [f"u_{l}" for l in range(len(names) - 1)]:
        raise ValueError(f"{path}: expected a u_blocks.csv header 'n,u_0,...', got {header[:60]!r}")
    if not any(row.strip() for row in rows):
        raise ValueError(f"{path}: no periods recorded")
    width = f"{path}: expected {len(names)} fields on every row, as in the header"
    try:
        data = np.loadtxt(rows, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:  # a field that is no number, or rows of unequal width
        ragged = any(row.count(",") != len(names) - 1 for row in rows if row.strip())
        raise ValueError(width if ragged else f"{path}: {exc}") from None
    if data.shape[1] != len(names):
        raise ValueError(width)
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: expected finite numbers")
    if not np.array_equal(data[:, 0], np.arange(len(data))):
        raise ValueError(f"{path}: expected periods n = 0, 1, 2, ... in order")
    return data[:, 1:]


_PERIOD_TABLES = ("discrete.csv", "taps.csv", "u_blocks.csv")


def _period_columns(name: str, h: float, x_d, y_d, taps, delta, u_alg):
    """Header and columns of one arm's period table ``name``, row n for period n.

    discrete.csv holds the reference x_d and the held output y_d, taps.csv
    the taps in effect and the direction entering each period, and
    u_blocks.csv the regressor blocks the algorithm read, one row per
    update.
    """
    if name == "discrete.csv":
        n = np.arange(len(x_d))
        return ["n", "t", "x_d", "y_d"], [n, n * h, x_d, y_d]
    if name == "taps.csv":
        n_taps = taps.shape[1] if taps.size else 0
        header = ["n"] + [f"alpha_{k}" for k in range(n_taps)] + [f"delta_{k}" for k in range(n_taps)]
        return header, [np.arange(len(taps)), *taps.T, *delta.T]
    return ["n"] + [f"u_{l}" for l in range(u_alg.shape[1])], [np.arange(len(u_alg)), *u_alg.T]


def _histories(arms: int, periods: int, L: int, n_taps: int, zeros=np.zeros) -> list[np.ndarray]:
    """The arm loop's w and e (arms, periods, L, 1), taps and direction
    (arms, periods + 1, 1, n_taps) and y_d (arms, periods, 1, 1) histories,
    zero, as views of one buffer of ``zeros(count)`` values."""
    shapes = [(arms, periods, L, 1)] * 2 + [(arms, periods + 1, 1, n_taps)] * 2 + [(arms, periods, 1, 1)]
    sizes = [math.prod(shape) for shape in shapes]
    parts = np.split(zeros(sum(sizes)), np.cumsum(sizes[:-1]))
    return [part.reshape(shape) for part, shape in zip(parts, shapes)]


def _write_fast(paths, t, x, d, u, ws, es, ready) -> list[OSError]:
    """Write each arm's fast.csv (columns t, x, d, w, e, u) as its rows become final.

    The arms share the columns ``t, x, d, u``; ``ws[a]`` and ``es[a]`` are
    arm a's. ``ready`` yields, per arm, how many leading rows are final; an
    arm whose count trails another's has stopped for good. So each chunk of
    about ``_FAST_CHUNK_VALUES`` values formats the shared columns once for
    every arm it still writes, and each arm's rows are a selection of its
    fields. The values, the fields and the selection each take one buffer,
    allocated once. A file that fails is dropped and the others go on;
    returns the errors.
    """
    files, errors = {}, []

    def write(a: int, data: bytes) -> None:
        try:
            files[a].write(data)
        except OSError as exc:
            errors.append(exc)
            with contextlib.suppress(OSError):
                files.pop(a).close()

    for a, path in enumerate(paths):
        try:
            files[a] = open(path, "wb")
        except OSError as exc:
            errors.append(exc)
    try:
        for a in list(files):
            write(a, b"t,x,d,w,e,u\n")
        width = 4 + 2 * len(paths)
        rows, done = max(1, _FAST_CHUNK_VALUES // width), 0
        values, fields = np.empty(rows * width), np.empty((rows * width, 4), np.uint64)
        own = np.empty(rows * 6 * 4, np.uint64)
        for counts in ready:
            while arms := [a for a in files if counts[a] > done]:
                stop = min(done + rows, max(counts[a] for a in arms))
                columns = [t, x, d] + [c[a] for a in arms for c in (ws, es)] + [u]
                chunk = values[:(stop - done) * len(columns)].reshape(stop - done, -1)
                np.stack([c[done:stop] for c in columns], axis=1, out=chunk)
                text = fields[:chunk.size]
                _format_values(chunk.reshape(-1), text)
                text = text.reshape(chunk.shape + (4,))
                _separate(text)
                for j, a in enumerate(arms):
                    n = min(counts[a], stop) - done
                    sel = own[:n * 6 * 4].reshape(n, 6, 4)
                    np.take(text[:n], [0, 1, 2, 3 + 2 * j, 4 + 2 * j, len(columns) - 1],
                            axis=1, out=sel, mode="clip")
                    write(a, sel.tobytes().translate(None, b"\0"))
                done = stop
    finally:
        for fh in files.values():
            fh.close()
    return errors


def _shared_zeros(count: int) -> np.ndarray:
    """``count`` zero float64 values in a shared anonymous mapping, which a
    forked process sees the parent's writes to."""
    import mmap  # loaded on first use: only run and compare need it

    try:
        buf = mmap.mmap(-1, 8 * count)  # anonymous mappings start zero-filled
    except OSError as exc:  # ENOMEM, as numpy's own allocations raise it
        raise MemoryError(f"cannot map {8 * count} bytes: {exc}") from None
    return np.frombuffer(buf, np.float64, count)


def _thread_count() -> int:
    """OS threads of this process (/proc/self/stat field 20), 1 where that file does not exist."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            stat = fh.read()
    except OSError:
        return 1
    return int(stat[stat.rindex(b")") + 1:].split()[17])


class _FastWriter:
    """The tables of a run's arms: fast.csv written while the arm loop runs,
    the period tables by whichever process is free once it has.

    ``start`` allocates the loop's histories (see ``_histories``) in one
    shared mapping, queues the arms' period tables in a pipe, one byte each
    and the largest (rows x columns) first, makes the tables' directory and
    forks one process that reads the histories. ``progress``, due every
    ``every`` periods, sends it the period count and each arm's
    ``n_completed`` and ``diverged``; it writes every final fast.csv row.
    After the final message, the one at N periods, it claims period tables
    from the pipe until none is left, as this process does in ``claim``
    once the arms' results exist, so each table is written once, by one of
    the two. ``close`` ends the stream and reaps it, or, for a run that
    failed, stops it and removes every table either process may have begun,
    and the directory if ``start`` made it and nothing else is in it. Where
    ``os.fork`` is missing or fails, or other OS threads run (a fork copies
    none of them, and Python 3.12+ warns), nothing forks: ``claim`` writes
    every period table and ``close`` the fast tables in this process.
    Either way each fast.csv holds the rows final at the last ``progress``.
    """

    every = 64

    def __init__(self, out_dir: str, prefixes, h: float, record: ExogenousRecord) -> None:
        self.out_dir, self.h, self.record = out_dir, h, record
        self.paths = [os.path.join(out_dir, prefix + "fast.csv") for prefix in prefixes]
        self.tables = [os.path.join(out_dir, prefix + name) for prefix in prefixes for name in _PERIOD_TABLES]
        self.pid = self.counts = self.made = self.final = self._jobs = None
        self.errors = []

    def start(self, n_taps: int, u_alg: list[np.ndarray]) -> list[np.ndarray]:
        """The w, e, taps, direction and y_d histories, arm a's in row a;
        ``u_alg[a]`` holds arm a's regressor blocks, one row per period."""
        N, L = self.record.x.shape
        histories = _histories(len(self.paths), N, L, n_taps, _shared_zeros)
        self.w, self.e, self.taps, self.delta, self.y_d = histories
        self.u_alg = u_alg
        columns = [width for blocks in u_alg for width in (4, 1 + 2 * n_taps, 1 + blocks.shape[1])]
        jobs_r, jobs_w = os.pipe()
        self._jobs = jobs_r
        os.write(jobs_w, bytes(sorted(range(len(columns)), key=lambda j: -columns[j])))
        os.close(jobs_w)
        self.made = None if os.path.isdir(self.out_dir) else self.out_dir
        os.makedirs(self.out_dir, exist_ok=True)
        if hasattr(os, "fork") and _thread_count() == 1:
            self._fork()
        return histories

    def _fork(self) -> None:
        progress_r, progress_w = os.pipe()
        report_r, report_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (progress_r, progress_w, report_r, report_w):
                os.close(fd)
            return
        if pid == 0:  # leave through os._exit only: no return, no stdio flush
            try:
                os.close(progress_w)
                os.close(report_r)
                self.errors += self._write(self._messages(progress_r))
                if self.final is not None:
                    self.claim()
                if self.errors:
                    os.write(report_w, "; ".join(map(str, self.errors)).encode("utf-8", "replace"))
                os._exit(1 if self.errors else 0)
            except BaseException as exc:
                os.write(report_w, (str(exc) or type(exc).__name__).encode("utf-8", "replace"))
            finally:
                os._exit(1)
        os.close(progress_r)
        os.close(report_w)
        self.pid, self._progress, self._report = pid, progress_w, report_r

    def progress(self, periods: int, n_completed: np.ndarray, diverged: np.ndarray) -> None:
        """Periods done so far and ``n_completed`` and ``diverged`` of every arm;
        the message at N periods is the final one."""
        if periods == len(self.record.x):
            self.final = n_completed.tolist(), diverged.tolist()
        if self.pid is None:
            self.counts = self._final_rows(periods, n_completed.tolist())
            return
        try:
            os.write(self._progress, np.concatenate([[periods], n_completed, diverged]).astype(np.int64).tobytes())
        except OSError:
            pass  # the writer has exited; close() reports why

    def _claims(self):
        """Period tables that no process has claimed yet, one byte of the
        job pipe each, until the pipe is empty."""
        while job := os.read(self._jobs, 1):
            yield job[0]

    def claim(self) -> None:
        """Write every period table still unclaimed; the error of a table that
        fails to write is kept in ``errors`` and the next one is claimed."""
        n_completed, diverged = self.final
        for j in self._claims():
            a, table = divmod(j, len(_PERIOD_TABLES))
            k, n_up = n_completed[a], n_completed[a] - diverged[a]  # the diverging period made no update
            columns = _period_columns(_PERIOD_TABLES[table], self.h, self.record.x_d[:k], self.y_d[a, :k, 0, 0],
                                      self.taps[a, 1:k + 1, 0], self.delta[a, :k, 0], self.u_alg[a][:n_up])
            try:
                _write_columns(self.tables[j], *columns)
            except OSError as exc:
                self.errors.append(exc)

    def close(self, abort: bool = False) -> str:
        """End the stream and reap the writer, or write here; returns the
        failures' text, this process's first.

        With ``abort`` (the arms did not finish) nothing is written here, a
        forked writer is killed and the tables it may have begun are
        removed, and the directory ``start`` made is removed if nothing else
        is in it.
        """
        if self._jobs is not None:
            os.close(self._jobs)
        if self.pid is None:
            if not abort and self.counts is not None:
                self.errors += self._write([self.counts])
        else:
            os.close(self._progress)
            if abort:
                import signal

                os.kill(self.pid, signal.SIGKILL)
            with os.fdopen(self._report, "rb") as pipe:
                failure = pipe.read().decode("utf-8", "replace")
            status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            self.pid = None
            if failure or status:
                self.errors.append(failure or f"fast table writer exited with code {status}")
            if abort:
                # period tables are claimed only after the final progress message
                for path in self.paths + self.tables * (self.final is not None):
                    with contextlib.suppress(OSError):
                        os.remove(path)
        if not abort:
            return "; ".join(map(str, self.errors))
        if self.made is not None:
            with contextlib.suppress(OSError):  # not empty: something else was written there
                os.rmdir(self.made)
        return ""

    def _final_rows(self, periods: int, n_completed: list[int]) -> list[int]:
        L = self.record.x.shape[1]
        return [min(periods, k) * L for k in n_completed]

    def _messages(self, fd: int):
        """Final row counts of each arm, one per progress message, through the final one."""
        arms = len(self.paths)
        size = 8 * (1 + 2 * arms)
        with os.fdopen(fd, "rb") as pipe:
            while len(msg := pipe.read(size)) == size:
                periods, *counts = np.frombuffer(msg, np.int64).tolist()
                yield self._final_rows(periods, counts[:arms])
                if periods == len(self.record.x):
                    self.final = counts[:arms], counts[arms:]  # n_completed, diverged
                    return

    def _write(self, ready) -> list[OSError]:
        rec, N, L = self.record, *self.record.x.shape
        return _write_fast(self.paths, np.arange(N * L) * (self.h / L),
                           rec.x.reshape(-1), rec.d.reshape(-1), rec.u.reshape(-1),
                           self.w.reshape(len(self.w), -1), self.e.reshape(len(self.e), -1), ready)
