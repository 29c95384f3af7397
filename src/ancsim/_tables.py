"""CSV tables: every value as CPython's %.17g, the fast tables streamed from
a forked writer while the arms run, and the period tables shared with it.

``_write_tables`` writes every numeric table, from a pool of columns that
its tables share, and ``_write_columns`` is its one-table form;
``_write_items`` writes a key/value table as plain lines. ``load_u_blocks``
reads a u_blocks.csv table back. ``_period_rows`` cuts an arm's period rows
out of the arm loop's histories, and ``_period_columns`` lays them out as
its period tables (discrete.csv, taps.csv, u_blocks.csv). ``_FastWriter``
writes the arms' fast.csv tables in a forked process fed by the arm loop's
progress, or in this process where forking is unsafe; either process then
writes whichever period table is next. Both write through ``_write_tables``,
so a table's bytes do not depend on the process that wrote it.
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
# Values per chunk of the fast tables, which the forked writer writes
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


def _write_tables(tables, columns, ready, chunk_values: int) -> list[OSError]:
    """Write tables of shared 1-D ``columns`` as CSV, as their rows become final.

    ``tables`` holds each table's path, header and the indices (a list) of
    the columns it reads. ``ready`` yields, per table, how many leading rows
    are final; a table whose count trails another's has stopped for good.
    Each value prints as CPython's ``'%.17g' % float(x)`` into a 32-byte
    field, NUL-padded, then its separator. Each chunk of about
    ``chunk_values`` values formats every column a live table reads, once;
    a table that reads all of them in order is written from those fields,
    any other from a selection of them, the NUL padding deleted as it is
    written. The values, the fields and (when needed) the selection each
    take one buffer. A file that fails is dropped and the others go on;
    returns the errors.
    """
    files, errors = {}, []

    def write(i: int, data: bytes) -> None:
        try:
            files[i].write(data)
        except OSError as exc:
            errors.append(exc)
            with contextlib.suppress(OSError):
                files.pop(i).close()

    try:
        for i, (path, header, _) in enumerate(tables):
            try:
                files[i] = open(path, "wb")
            except OSError as exc:
                errors.append(exc)
            else:
                write(i, (",".join(header) + "\n").encode("utf-8"))
        width = len(columns)
        rows, done, picked = max(1, chunk_values // width), 0, None
        values, fields = np.empty(rows * width), np.empty((rows * width, 4), np.uint64)
        for counts in ready:
            while live := [i for i in files if counts[i] > done]:
                stop = min(done + rows, max(counts[i] for i in live))
                read = sorted({j for i in live for j in tables[i][2]})
                chunk = values[:(stop - done) * len(read)].reshape(stop - done, -1)
                np.stack([columns[j][done:stop] for j in read], axis=1, out=chunk)
                text = fields[:chunk.size]
                _format_values(chunk.reshape(-1), text)
                text = text.reshape(chunk.shape + (4,))
                for i in live:
                    n, picks = min(counts[i], stop) - done, tables[i][2]
                    block = text[:n]
                    if picks != read:
                        picked = np.empty(rows * width * 4, np.uint64) if picked is None else picked
                        block = np.take(block, [read.index(j) for j in picks], axis=1, mode="clip",
                                        out=picked[:n * len(picks) * 4].reshape(n, len(picks), 4))
                    _separate(block)
                    write(i, block.tobytes().translate(None, b"\0"))
                done = stop
    finally:
        for fh in files.values():
            fh.close()
    return errors


def _write_columns(path: str, header: list[str], columns) -> None:
    """One table of equal-length 1-D numeric columns, in chunks of about
    ``_CHUNK_VALUES`` values (a smaller table's buffers hold just it);
    raises its ``OSError``. An integer prints as its %d, which is its %.17g
    only up to 2^53: past it, ``ValueError``."""
    if any(c.dtype.kind in "iu" and c.size and (c.min() < -2**53 or c.max() > 2**53) for c in columns):
        raise ValueError("integer columns past 2^53 do not print as %.17g")
    n_rows = len(columns[0])
    for exc in _write_tables([(path, header, list(range(len(columns))))], columns, [[n_rows]],
                             min(_CHUNK_VALUES, n_rows * len(columns))):
        raise exc


def _write_items(path: str, items) -> None:
    """A key/value table: the header ``key,value``, then one ``key,%.17g`` line per item."""
    with open(path, "wb") as fh:
        fh.write(("key,value\n" + "".join("%s,%.17g\n" % item for item in items)).encode("utf-8"))


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


def _period_rows(x_d, histories, a: int, k: int, diverged: bool, u_alg):
    """Arm a's period rows through its ``k`` completed periods, from the arm
    loop's histories (see ``_histories``): x_d, y_d, the taps in effect and
    the direction entering each period, and ``u_alg``'s blocks of its
    updates, one fewer if it diverged (the diverging period made none)."""
    _, _, taps, delta, y_d = histories
    return x_d[:k], y_d[a, :k, 0, 0], taps[a, 1:k + 1, 0], delta[a, :k, 0], u_alg[:k - diverged]


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
        self.histories = _histories(len(self.paths), N, L, n_taps, _shared_zeros)
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
        return self.histories

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
            columns = _period_columns(_PERIOD_TABLES[table], self.h, *_period_rows(
                self.record.x_d, self.histories, a, n_completed[a], diverged[a], self.u_alg[a]))
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
        """Each arm's fast.csv (t, x, d, w, e, u) from the shared t, x, d and u
        columns and the arm's own w and e."""
        rec, (N, L), arms = self.record, self.record.x.shape, len(self.paths)
        w, e = (arr.reshape(arms, -1) for arr in self.histories[:2])
        columns = [np.arange(N * L) * (self.h / L), rec.x.reshape(-1), rec.d.reshape(-1),
                   *(c[a] for a in range(arms) for c in (w, e)), rec.u.reshape(-1)]
        tables = [(path, list("txdweu"), [0, 1, 2, 3 + 2 * a, 4 + 2 * a, 3 + 2 * arms])
                  for a, path in enumerate(self.paths)]
        return _write_tables(tables, columns, ready, _FAST_CHUNK_VALUES)
