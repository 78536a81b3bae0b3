import pathlib

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    # the README's "Library use" block, run as written
    text = README.read_text()
    section = text[text.index("## Library use"):]
    start = section.index("```python\n") + len("```python\n")
    code = section[start:section.index("```", start)]
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    assert scope["out"].converged
    assert abs(float(scope["mu"].weights.sum()) - 1.0) <= 1e-12
