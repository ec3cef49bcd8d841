"""Protocol layer: framing, parsing, limits, error taxonomy — no sockets."""

import json

import pytest

from repro.core.truth_table import TruthTable
from repro.service import protocol
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    parse_request,
    parse_table_payload,
)


class TestParseRequest:
    def test_match_with_hex_and_n(self):
        req = parse_request(b'{"op": "match", "id": 7, "table": "0xe8", "n": 3}')
        assert req.op == "match"
        assert req.id == 7
        assert req.table == TruthTable(3, 0xE8)

    def test_classify_with_binary(self):
        req = parse_request('{"op": "classify", "table": "11101000"}')
        assert req.table == TruthTable.from_binary("11101000")
        assert req.id is None

    def test_stats_and_ping_need_no_table(self):
        assert parse_request('{"op": "stats"}').table is None
        assert parse_request('{"op": "ping", "id": "x"}').id == "x"

    def test_malformed_json_is_bad_request(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b"{nope")
        assert excinfo.value.error_type == "bad_request"

    def test_non_object_is_bad_request(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b"[1, 2]")
        assert excinfo.value.error_type == "bad_request"

    def test_unknown_op_names_the_known_ones(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request('{"op": "destroy"}')
        assert excinfo.value.error_type == "bad_request"
        assert "classify" in excinfo.value.message
        assert "match" in excinfo.value.message

    def test_oversized_line_is_payload_too_large(self):
        line = b'{"op": "match", "table": "' + b"0" * MAX_LINE_BYTES + b'"}'
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(line)
        assert excinfo.value.error_type == "payload_too_large"

    def test_non_utf8_is_bad_request(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b'{"op": "match", "table": "\xff\xfe"}')
        assert excinfo.value.error_type == "bad_request"


class TestTablePayload:
    def test_binary(self):
        assert parse_table_payload({"table": "0110"}) == TruthTable(2, 0b0110)

    def test_hex_with_prefix_infers_n(self):
        assert parse_table_payload({"table": "0xe8"}) == TruthTable(3, 0xE8)

    def test_hex_needs_inferable_width(self):
        with pytest.raises(ProtocolError):
            parse_table_payload({"table": "0xe8a"})  # 12 bits

    def test_digit_only_hex_disambiguated_by_n(self):
        # "10" is binary x0 without n, but 0x10 when n=3 says so.
        assert parse_table_payload({"table": "10"}) == TruthTable(1, 0b10)
        assert parse_table_payload({"table": "10", "n": 3}) == TruthTable(3, 0x10)

    def test_binary_consistent_with_n_stays_binary(self):
        assert parse_table_payload({"table": "0110", "n": 2}) == TruthTable(
            2, 0b0110
        )

    def test_missing_or_empty_table(self):
        for payload in ({}, {"table": ""}, {"table": 42}):
            with pytest.raises(ProtocolError) as excinfo:
                parse_table_payload(payload)
            assert excinfo.value.error_type == "bad_request"

    def test_bool_n_rejected(self):
        with pytest.raises(ProtocolError):
            parse_table_payload({"table": "0110", "n": True})

    def test_garbage_rejected(self):
        with pytest.raises(ProtocolError):
            parse_table_payload({"table": "zz"})


class TestReplies:
    def test_ok_reply_echoes_id(self):
        reply = protocol.ok_reply(3, "match", {"hit": False})
        assert reply == {"ok": True, "op": "match", "id": 3, "result": {"hit": False}}

    def test_error_reply_typed(self):
        reply = protocol.error_reply(None, "overloaded", "queue full")
        assert reply["ok"] is False
        assert reply["error"]["type"] == "overloaded"
        assert "id" not in reply

    def test_error_reply_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            protocol.error_reply(None, "weird", "nope")

    def test_encode_line_is_one_json_line(self):
        line = protocol.encode_line({"ok": True})
        assert line.endswith(b"\n")
        assert json.loads(line) == {"ok": True}

    def test_match_payload_roundtrip(self, tiny_library):
        query = TruthTable(3, 0xE8)
        hit = tiny_library.match(query)
        payload = protocol.match_payload(query, hit, cached=True)
        assert payload["hit"] and payload["cached"]
        rep = TruthTable.from_hex(payload["n"], payload["representative"])
        assert rep == hit.representative
        assert payload["transform"] == hit.transform.as_dict()

    def test_match_payload_miss(self):
        payload = protocol.match_payload(TruthTable(3, 0xE8), None, cached=False)
        assert payload == {"hit": False, "n": 3, "cached": False}


RESULT = {"hit": True, "n": 3, "class_id": "n3-c80", "note": "ü \"q\""}


class TestEncodedOk:
    """The relay form of an ok reply: its worker bytes under a new id."""

    @pytest.mark.parametrize(
        "client_id",
        [0, 7, 2**63, "q-7", 'ü"x', None, 1.5, True, [1, "a"], {"b": 1, "a": 2}],
    )
    def test_relayed_line_is_the_encoded_line(self, client_id):
        worker_line = protocol.encode_line(protocol.ok_reply(41, "match", RESULT))
        worker_id, relayed = protocol.split_ok_line(worker_line)
        assert worker_id == 41
        assert relayed.line(client_id) == protocol.encode_line(
            protocol.ok_reply(client_id, "match", RESULT)
        )
        assert relayed.result() == RESULT
        assert protocol.EncodedOk.of("match", RESULT) == relayed

    @pytest.mark.parametrize("worker_id", [0, 9, 10**19])
    def test_split_reads_integer_ids(self, worker_id):
        line = protocol.encode_line(protocol.ok_reply(worker_id, "ping", {}))
        assert protocol.split_ok_line(line)[0] == worker_id

    @pytest.mark.parametrize(
        "line",
        [
            protocol.encode_line(protocol.error_reply(3, "overloaded", "full")),
            protocol.encode_line(protocol.ok_reply(None, "match", RESULT)),
            protocol.encode_line(protocol.ok_reply("3", "match", RESULT)),
            protocol.encode_line(protocol.ok_reply(-3, "match", RESULT)),
            protocol.encode_line(protocol.ok_reply(True, "match", RESULT)),
            protocol.encode_line(protocol.ok_reply(3.0, "match", RESULT)),
            protocol.encode_line(protocol.ok_reply(10**20, "match", RESULT)),
            json.dumps({"ok": True, "id": 3, "result": RESULT}).encode(),
            b'{"id": 3, "ok": false, "op": "match"}\n',
            b"not json\n",
        ],
    )
    def test_other_lines_are_left_to_the_decoder(self, line):
        assert protocol.split_ok_line(line) is None

    @pytest.mark.parametrize("cut", [len(b'{"id": 41, "ok": true, '), 50, -1])
    def test_line_cut_short_of_its_newline_is_not_relayed(self, cut):
        line = protocol.encode_line(protocol.ok_reply(41, "match", RESULT))
        assert protocol.split_ok_line(line[:cut]) is None


class TestHttpResponse:
    def test_shape(self):
        raw = protocol.http_response(200, {"status": "ok"})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 200 OK\r\n")
        assert b"Content-Type: application/json" in head
        assert json.loads(body) == {"status": "ok"}
        length = int(
            [h for h in head.split(b"\r\n") if h.startswith(b"Content-Length")][0]
            .split(b":")[1]
        )
        assert length == len(body)
