from magicbench.oracle import judge

THRESHOLD = 0.5


def ok(label, **extra):
    return {"label": label, "cached": False, "similar": False, **extra}


def test_correct_answers_pass():
    assert judge(3, 200, ok(3), None, THRESHOLD) is None
    assert judge("parse", 422, {"error": {"kind": "parse"}}, None,
                 THRESHOLD) is None
    similar = {"label": 5, "cached": True, "similar": True, "similarity": 0.8}
    assert judge(3, 200, similar, None, THRESHOLD) is None


def test_wrong_label_fails():
    assert "label" in judge(3, 200, ok(4), None, THRESHOLD)


def test_wrong_status_fails():
    assert judge(3, 422, {"error": {"kind": "parse"}}, None, THRESHOLD)
    assert judge("parse", 200, ok(1), None, THRESHOLD)
    assert judge("parse", 422, {"error": {"kind": "oversize"}}, None,
                 THRESHOLD)
    assert judge(3, 400, {"error": "bad"}, None, THRESHOLD)


def test_server_errors_fail():
    assert judge(3, 503, {"error": "queue timeout"}, None, THRESHOLD)
    assert judge(3, 500, {"error": "boom"}, None, THRESHOLD)


def test_timeout_and_transport_errors_fail():
    assert "transport" in judge(3, None, None, "TimeoutError: timed out",
                                THRESHOLD)
    assert judge(3, None, None, "ConnectionResetError", THRESHOLD)


def test_unflagged_similar_answer_fails():
    assert judge(3, 200, ok(3, similarity=0.9), None, THRESHOLD)
    assert judge(3, 200, {"label": 3, "similar": True}, None, THRESHOLD)
    assert judge(3, 200, {"label": 3, "similar": True, "similarity": 0.2},
                 None, THRESHOLD)
