"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import Prospector
from repro.apispec import load_api_text
from repro.corpus import load_corpus_texts
from repro.data import standard_corpus, standard_setup

#: A compact API used by most unit tests: a realistic little hierarchy
#: with constructors, static methods, fields, interfaces, and arrays.
SMALL_API = """
package java.lang;
public class String {
  public int length();
  public String trim();
}

package demo.io;
public abstract class Reader {
  public int read();
}
public class InputStream {
  public int read();
}
public class InputStreamReader extends Reader {
  public InputStreamReader(InputStream in);
}
public class StringReader extends Reader {
  public StringReader(String s);
}
public class BufferedReader extends Reader {
  public BufferedReader(Reader in);
  public String readLine();
}

package demo.ui;
public interface ISelection {
  boolean isEmpty();
}
public interface IStructuredSelection extends ISelection {
  Object getFirstElement();
}
public class Viewer {
  public Viewer();
  public ISelection getSelection();
  public Object getInput();
}
public class Panel {
  public Panel();
  public Viewer getViewer();
  public Widget[] getWidgets();
  public Item itemFor(Widget w);
  public Widget widget;
  public static Panel getDefault();
}
public class Widget {
  public Widget();
  public String getName();
}
public class Item extends Widget {
  public Item(Panel parent);
}
"""

#: A corpus exercising the mining pipeline against SMALL_API.
SMALL_CORPUS = """
package client;

import demo.ui.Panel;
import demo.ui.Viewer;
import demo.ui.ISelection;
import demo.ui.IStructuredSelection;
import demo.ui.Item;

public class Handler {
  public Item selectedItem(Panel panel) {
    Viewer viewer = panel.getViewer();
    ISelection sel = viewer.getSelection();
    IStructuredSelection ss = (IStructuredSelection) sel;
    Object first = ss.getFirstElement();
    Item item = (Item) first;
    return item;
  }

  public String describe(Panel panel) {
    Item item = selectedItem(panel);
    return item.getName();
  }
}
"""


@pytest.fixture()
def small_registry():
    return load_api_text(SMALL_API)


@pytest.fixture()
def small_corpus(small_registry):
    return load_corpus_texts(small_registry, [("handler.mj", SMALL_CORPUS)])


@pytest.fixture()
def small_prospector(small_registry, small_corpus):
    return Prospector(small_registry, small_corpus)


# Session-scoped full setup: building it is ~100 ms but used by many tests.
@pytest.fixture(scope="session")
def standard_registry_and_corpus():
    return standard_setup()


@pytest.fixture(scope="session")
def standard_prospector(standard_registry_and_corpus):
    # Its own program: the first pipeline built from a program adopts
    # its parses, so sharing the cached one would make this fixture
    # depend on which test built from it first.
    registry, _ = standard_registry_and_corpus
    return Prospector(registry, standard_corpus(registry))
