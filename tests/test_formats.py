import copy
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from adaptscore import EmbeddingSet, embed_core
from adaptscore.corr import load_accuracy_csv
from adaptscore.errors import BadMagic, ManifestError, NonFiniteValue, RaggedCsv, TruncatedFile
from adaptscore.formats import (
    load_labels,
    load_manifest,
    open_embeddings,
    save_embeddings,
    save_labels,
)
from conftest import read_embeddings, write_csv


class TestPemb:
    def test_round_trip_exact_at_32bit(self, tmp_path, rng):
        e = EmbeddingSet(rng.standard_normal((13, 7)))
        p = tmp_path / "e.pemb"
        save_embeddings(p, e)
        out = read_embeddings(p)
        np.testing.assert_array_equal(out.data, e.data.astype(np.float32).astype(np.float64))

    def test_header_layout(self, tmp_path):
        e = EmbeddingSet([[1.0, 0.0], [0.0, 1.0]])
        p = tmp_path / "e.pemb"
        save_embeddings(p, e)
        blob = p.read_bytes()
        assert blob[:4] == b"PEMB"
        assert blob[4] == 1 and blob[5] == 0 and blob[6:8] == b"\x00\x00"
        n, d = struct.unpack_from("<QQ", blob, 8)
        assert (n, d) == (2, 2)
        assert len(blob) == 24 + 4 * n * d

    def test_identity_payload(self, tmp_path):
        p = tmp_path / "id.pemb"
        p.write_bytes(
            struct.pack("<4sBB2xQQ", b"PEMB", 1, 0, 2, 2)
            + np.array([1, 0, 0, 1], dtype="<f4").tobytes()
        )
        np.testing.assert_array_equal(read_embeddings(p).data, np.eye(2))

    def test_truncated(self, tmp_path):
        p = tmp_path / "t.pemb"
        p.write_bytes(
            struct.pack("<4sBB2xQQ", b"PEMB", 1, 0, 3, 2)
            + np.zeros(4, dtype="<f4").tobytes()
        )
        with pytest.raises(TruncatedFile):
            read_embeddings(p)

    def test_shorter_than_header(self, tmp_path):
        p = tmp_path / "h.pemb"
        p.write_bytes(struct.pack("<4sBB2xQQ", b"PEMB", 1, 0, 3, 2)[:20])
        with pytest.raises(TruncatedFile) as info:
            read_embeddings(p)
        assert (info.value.expected, info.value.got) == (24, 20)

    def test_bad_magic_binary(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"\x00\x01\x02\x03\xff\xfe")
        with pytest.raises(BadMagic):
            read_embeddings(p)

    def test_nonfinite_rejected(self, tmp_path):
        p = tmp_path / "nan.pemb"
        p.write_bytes(
            struct.pack("<4sBB2xQQ", b"PEMB", 1, 0, 1, 2)
            + np.array([1.0, np.nan], dtype="<f4").tobytes()
        )
        with pytest.raises(NonFiniteValue):
            read_embeddings(p)

    def test_chunked_read_matches_and_locates_nonfinite(self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(embed_core, "_BLOCK_ROWS", 4)  # the finiteness check's row blocks
        data = rng.standard_normal((11, 3))
        p = tmp_path / "e.pemb"
        save_embeddings(p, EmbeddingSet(data))
        np.testing.assert_array_equal(
            read_embeddings(p).data, data.astype(np.float32).astype(np.float64)
        )
        blob = bytearray(p.read_bytes())
        for row, col, bad in ((9, 2, np.inf), (5, 0, np.nan)):
            struct.pack_into("<f", blob, 24 + 4 * (3 * row + col), bad)
        p.write_bytes(bytes(blob))
        with pytest.raises(NonFiniteValue) as info:
            read_embeddings(p)
        assert (info.value.row, info.value.col) == (5, 0)
        p.write_bytes(bytes(blob[:-4]))
        with pytest.raises(TruncatedFile) as info:
            read_embeddings(p)
        assert (info.value.expected, info.value.got) == (24 + 4 * 33, 24 + 4 * 32)

    def test_pemb_stays_float32_in_memory(self, tmp_path, rng):
        x32 = rng.standard_normal((10, 6)).astype(np.float32)
        p = tmp_path / "e.pemb"
        p.write_bytes(struct.pack("<4sBB2xQQ", b"PEMB", 1, 0, 10, 6) + x32.astype("<f4").tobytes())
        out = read_embeddings(p).data
        assert out.dtype == np.float32 and out.flags.c_contiguous
        np.testing.assert_array_equal(out, x32, strict=True)

    def test_csv_and_float64_input_stay_float64(self, tmp_path, rng):
        x = rng.standard_normal((5, 3))
        p = tmp_path / "e.csv"
        write_csv(p, x)
        assert read_embeddings(p).data.dtype == np.float64
        assert EmbeddingSet(x).data.dtype == np.float64
        assert EmbeddingSet(x.astype(np.float16)).data.dtype == np.float64
        assert EmbeddingSet([[1, 2], [3, 4]]).data.dtype == np.float64

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_float32_nonfinite_position(self, rng, monkeypatch, bad):
        monkeypatch.setattr(embed_core, "_BLOCK_ROWS", 7)
        x32 = rng.standard_normal((30, 4)).astype(np.float32)
        x32[23, 1] = bad
        x32[17, 3] = bad
        for data in (x32, x32.astype(np.float64)):
            with pytest.raises(NonFiniteValue) as info:
                EmbeddingSet(data)
            assert (info.value.row, info.value.col) == (17, 3)


class TestSaveArrayLike:
    def test_bare_array_saves_the_bytes_of_its_set(self, tmp_path, rng):
        for x in (rng.standard_normal((6, 3)), rng.standard_normal((6, 3)).astype(np.float32), [[1, 2], [3, 4]]):
            save_embeddings(tmp_path / "set", EmbeddingSet(x))
            save_embeddings(tmp_path / "bare", x)
            assert (tmp_path / "bare").read_bytes() == (tmp_path / "set").read_bytes()

    def test_nonfinite_array_raises_before_writing(self, tmp_path, rng):
        x = rng.standard_normal((6, 3))
        x[4, 2] = np.nan
        with pytest.raises(NonFiniteValue):
            save_embeddings(tmp_path / "bad", x)
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("block_rows, at", [(8192, (0, 0)), (2, (3, 1))], ids=["first", "later"])
    def test_value_beyond_float32_raises_before_its_block(self, tmp_path, monkeypatch, recwarn, block_rows, at):
        # The blocks before the bad one are written, so the file is short.
        monkeypatch.setattr(embed_core, "_BLOCK_ROWS", block_rows)
        x = np.ones((5, 3))
        x[at] = 1e39 if at == (0, 0) else -4e38
        with pytest.raises(NonFiniteValue) as err:
            save_embeddings(tmp_path / "big", x)
        assert (err.value.row, err.value.col) == at
        assert not recwarn.list  # the cast's overflow warning is not raised
        assert (tmp_path / "big").stat().st_size == 24 + 4 * 3 * (at[0] // block_rows * block_rows)
        with pytest.raises(TruncatedFile):
            open_embeddings(tmp_path / "big")


class TestBlockwiseWriters:
    """save_embeddings converts and writes one _BLOCK_ROWS block of rows at
    a time, with the bytes of a whole-matrix conversion."""

    @staticmethod
    def inputs(rng, n):
        x = rng.standard_normal((n, 5))
        return x, x.astype(np.float32), rng.integers(-1_000, 1_000, (n, 5))

    @pytest.mark.parametrize("n", [6, 7, 8])  # below, at and one past the 7-row block
    def test_pemb_bytes_are_the_whole_matrix_conversion(self, tmp_path, rng, monkeypatch, n):
        monkeypatch.setattr(embed_core, "_BLOCK_ROWS", 7)
        for x in self.inputs(rng, n):
            save_embeddings(tmp_path / "e.pemb", EmbeddingSet(x))
            header = struct.pack("<4sBB2xQQ", b"PEMB", 1, 0, n, 5)
            assert (tmp_path / "e.pemb").read_bytes() == header + x.astype("<f4").tobytes(), x.dtype

    def test_pemb_memory_is_one_block(self, tmp_path, rng, monkeypatch):
        # A float64 set of n and of 2n rows: the writer's traced peak is
        # bounded by two float32 blocks plus slack, whatever n.
        monkeypatch.setattr(embed_core, "_BLOCK_ROWS", 1_024)
        block = 1_024 * 64 * 4
        peaks = []
        for n in (10_000, 20_000):
            e = EmbeddingSet(rng.standard_normal((n, 64)))
            tracemalloc.start()
            try:
                save_embeddings(tmp_path / "e.pemb", e)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 2 * block + (64 << 10), peaks
        assert peaks[1] < peaks[0] + (64 << 10), peaks


class TestCsv:
    def test_equivalent_to_pemb(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("1.0,0.0\n0.0,1.0\n")
        np.testing.assert_array_equal(read_embeddings(p).data, np.eye(2))

    def test_round_trip_within_32bit_ulp(self, tmp_path, rng):
        e = EmbeddingSet(rng.standard_normal((9, 4)))
        p = tmp_path / "e.csv"
        write_csv(p, e.data)
        out = read_embeddings(p)
        np.testing.assert_array_equal(
            out.data.astype(np.float32), e.data.astype(np.float32)
        )

    def test_ragged(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(RaggedCsv):
            read_embeddings(p)

    def test_unparsable_value(self, tmp_path):
        p = tmp_path / "bad.csv"
        # float() takes a "_" separator and non-ASCII digits; the reader does not.
        for field in ("x", "1_0", "\u0661"):
            p.write_text(f"1.0,2.0\n\n3.0,{field}\n", encoding="utf-8")
            with pytest.raises(RaggedCsv) as info:
                read_embeddings(p)
            assert info.value.line == 3, field

    def test_nonfinite_value_names_its_row_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\n\n3.0,inf\n")
        with pytest.raises(NonFiniteValue) as info:
            read_embeddings(p)
        assert (info.value.row, info.value.col) == (1, 1)

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"1.0,2.0\n\xff\xfe,3.0\n")
        with pytest.raises(BadMagic):
            read_embeddings(p)

    def test_blank(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("\n  \n\n")
        with pytest.raises(TruncatedFile):
            read_embeddings(p)


class TestLabels:
    def test_binary_round_trip(self, tmp_path):
        labels = np.array([0, 2, 1, 2, 0])
        p = tmp_path / "l.plbl"
        save_labels(p, labels)
        blob = p.read_bytes()
        assert blob[:4] == b"PLBL" and blob[4] == 1
        np.testing.assert_array_equal(load_labels(p), labels)

    def test_text_round_trip(self, tmp_path):
        labels = [3, 1, 0, 2]
        p = tmp_path / "l.txt"
        p.write_text("".join(f"{v}\n" for v in labels))
        np.testing.assert_array_equal(load_labels(p), labels)

    def test_truncated(self, tmp_path):
        p = tmp_path / "l.plbl"
        p.write_bytes(struct.pack("<4sB3xQ", b"PLBL", 1, 5) + b"\x00" * 8)
        with pytest.raises(TruncatedFile):
            load_labels(p)

    def test_negative_rejected(self, tmp_path):
        p = tmp_path / "l.txt"
        p.write_text("0\n-1\n")
        with pytest.raises(RaggedCsv):
            load_labels(p)

    @pytest.mark.parametrize(
        "blob, error",
        [
            (struct.pack("<4sB3xQ", b"PLBL", 1, 0)[:12], TruncatedFile),
            (struct.pack("<4sB3xQ", b"PLBL", 2, 0), BadMagic),
            (b"0\n\xff\xfe\n", BadMagic),
            (b"0\n1.5\n", RaggedCsv),
            (b"0\n1_0\n", RaggedCsv),
            ("0\n\u0661\n".encode(), RaggedCsv),
            (b"\n  \n\n", TruncatedFile),
        ],
        ids=["plbl-short-header", "plbl-version", "not-utf8", "not-integer", "digit-separator",
             "non-ascii-digit", "blank"],
    )
    def test_bad_label_file(self, tmp_path, blob, error):
        p = tmp_path / "l.bin"
        p.write_bytes(blob)
        with pytest.raises(error):
            load_labels(p)

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([0, 1, -1, 2], "label -1 "),
            ([0, 1, 2**32 + 3], "label 4294967299 "),
            ([0, 2**64], "dtype object"),
            ([[0, 1], [1, 0]], "1-D"),
            ([0.5, 1.7, 2.0], "label 0.5 "),
            ([0.0, np.nan], "label nan "),
            (np.array([0, 2**63 + 5], dtype=np.uint64), "label 9223372036854775813 "),
        ],
        ids=["negative", "beyond-u32", "beyond-i64", "2-d", "fractional", "nan", "uint64-beyond-i64"],
    )
    def test_writer_rejects_labels_it_cannot_store(self, tmp_path, labels, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            save_labels(tmp_path / "l", labels)
        assert not (tmp_path / "l").exists()

    def test_writer_takes_integral_floats(self, tmp_path):
        save_labels(tmp_path / "l", [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(load_labels(tmp_path / "l"), [0, 1, 2])

    def test_writer_stores_the_whole_plbl_range(self, tmp_path):
        labels = [0, 2**32 - 1, 7]
        save_labels(tmp_path / "l", labels)
        np.testing.assert_array_equal(load_labels(tmp_path / "l"), labels)

    @pytest.mark.parametrize(
        "line",
        ["4294967296", "18446744073709551616", "0.5", "nan", "2.0", "1e3"],
        ids=["beyond-u32", "beyond-i64", "fractional", "nan", "integral-float", "exponent"],
    )
    def test_text_reader_rejects_a_line_plbl_cannot_store(self, tmp_path, line):
        p = tmp_path / "l.txt"
        p.write_text(f"0\n{line}\n1\n")
        with pytest.raises(RaggedCsv) as info:
            load_labels(p)
        assert info.value.line == 2

    def test_text_reader_takes_the_whole_plbl_range(self, tmp_path):
        p = tmp_path / "l.txt"
        p.write_text("0\n\n  4294967295 \n7\n")
        np.testing.assert_array_equal(load_labels(p), [0, 2**32 - 1, 7])

    def test_label_beyond_u32_rejected(self, tmp_path):
        p = tmp_path / "l.txt"
        p.write_text("0\n99999999999999999999\n")
        with pytest.raises(RaggedCsv):
            load_labels(p)


BOM = "\ufeff".encode()


@pytest.mark.parametrize("reader, text", [
    (lambda p: read_embeddings(p).data.tolist(), "1.0,0.0\n0.5,2.0\n"),
    (lambda p: load_labels(p).tolist(), "3\n1\n0\n"),
    (load_accuracy_csv, "D,71.8\nW,70.6\n"),
    (load_manifest, json.dumps({"target": {"emb": "t.pemb"},
                                "candidates": [{"id": "a", "emb": "a.pemb", "labels": "a.plbl"}]})),
], ids=["csv-embeddings", "text-labels", "accuracy-csv", "json-manifest"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, reader, text):
    """A UTF-8 byte-order mark, as some editors save "CSV UTF-8", is not
    part of the first field: the file reads as it does without one."""
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text.encode())
    marked.write_bytes(BOM + text.encode())
    assert reader(marked) == reader(plain)


class TestManifestAndAccuracy:
    def test_duplicate_candidate_ids_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"target": {}, "candidates": [{"id": "a"}, {"id": "a"}]}))
        with pytest.raises(ValueError):
            load_manifest(p)

    @pytest.mark.parametrize(
        "change",
        [
            {"candidates": []},
            {"candidates": [{"id": "a", "synth": {}}, {"id": "a", "synth": {}}]},
            {"seed": "7"},
        ],
    )
    def test_build_report_checks_a_dict_like_load_manifest(self, tmp_path, change):
        from adaptscore.reporting import build_report

        synth = {"num_classes": 2, "dim": 4, "n_source_per_class": 3, "n_target_per_class": 3}
        manifest = dict({"target": {"synth": synth}, "candidates": [{"id": "a", "synth": synth}]}, **change)
        p = tmp_path / "m.json"
        p.write_text(json.dumps(manifest))
        with pytest.raises(ManifestError):
            load_manifest(p)
        with pytest.raises(ManifestError):
            build_report(manifest)

    def test_manifest_defaults_fill_a_copy(self, tmp_path):
        from adaptscore.reporting import build_report

        synth = {"num_classes": 2, "dim": 4, "n_source_per_class": 3, "n_target_per_class": 3}
        manifest = {"target": {"synth": synth, "note": 1}, "candidates": [{"id": "a", "synth": synth}]}
        before = copy.deepcopy(manifest)
        p = tmp_path / "m.json"
        p.write_text(json.dumps(manifest))
        checked = load_manifest(p)
        assert checked == dict(before, methods=["pas"], seed=0, max_samples=10_000)
        report = build_report(manifest)
        assert manifest == before
        assert report["target"] == before["target"] and report["seed"] == 0
        assert list(report["selection"]) == ["pas"]

    def test_accuracy_csv(self, tmp_path):
        p = tmp_path / "acc.csv"
        p.write_text("D,71.8\nW,70.6\n")
        assert load_accuracy_csv(p) == {"D": 71.8, "W": 70.6}

    def test_accuracy_csv_not_utf8_is_bad_magic(self, tmp_path):
        p = tmp_path / "acc.csv"
        p.write_bytes(b"\xff\xfeD,71.8\n")
        with pytest.raises(BadMagic):
            load_accuracy_csv(p)

    def test_accuracy_csv_repeated_id(self, tmp_path):
        p = tmp_path / "acc.csv"
        p.write_text("D,71.8\nW,70.6\nD,10.0\n")
        with pytest.raises(RaggedCsv, match="line 3 repeats candidate id 'D'"):
            load_accuracy_csv(p)

    def test_accuracy_line_without_two_fields(self, tmp_path):
        p = tmp_path / "acc.csv"
        # A blank line is skipped and keeps the true line numbers.
        for text, line in (("D,71.8\nW\n", 2), ("D,71.8\n\nW\n", 3)):
            p.write_text(text)
            with pytest.raises(RaggedCsv) as info:
                load_accuracy_csv(p)
            assert info.value.line == line, text
