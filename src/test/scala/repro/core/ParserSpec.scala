package repro.core

import org.scalatest.funsuite.AnyFunSuite
import Ast._
import Parser.ParseError

class ParserSpec extends AnyFunSuite {

  private def parseMulti(src: String): MultiEventQuery =
    Parser.parse(src).asInstanceOf[MultiEventQuery]

  test("minimal single-event query") {
    val q = parseMulti("""proc p read file f as evt
                         |return p, f""".stripMargin)
    assert(q.events.size == 1)
    assert(q.events.head.op == "read")
    assert(q.events.head.subj == EntityPat("proc", "p", None))
    assert(q.events.head.obj == EntityPat("file", "f", None))
    assert(q.returns.map(_.expr) == Seq(VarRef("p"), VarRef("f")))
  }

  test("global at-clause parses") {
    val q = parseMulti("""(at "08/01/2023")
                         |proc p read file f as evt
                         |return p""".stripMargin)
    assert(q.globals == Seq(TimeAt("08/01/2023")))
  }

  test("global from-to clause parses") {
    val q = parseMulti("""(from "08/01/2023 09:00:00" to "08/01/2023 10:00:00")
                         |proc p read file f as evt
                         |return p""".stripMargin)
    assert(q.globals == Seq(TimeFromTo("08/01/2023 09:00:00", "08/01/2023 10:00:00")))
  }

  test("agentid equality and in-list") {
    val q1 = parseMulti("agentid = 4\nproc p read file f as evt\nreturn p")
    assert(q1.globals == Seq(AgentIn(Seq(4))))
    val q2 = parseMulti("agentid in (1, 2, 3)\nproc p read file f as evt\nreturn p")
    assert(q2.globals == Seq(AgentIn(Seq(1, 2, 3))))
  }

  test("bare string filter becomes default-attribute equality") {
    val q = parseMulti("""proc p["%cmd.exe"] read file f as evt
                         |return p""".stripMargin)
    assert(q.events.head.subj.filter.contains(Bin("=", AttrRef("p", ""), StrLit("%cmd.exe"))))
  }

  test("attribute filter qualifies bare names with the entity variable") {
    val q = parseMulti("""proc p write ip i[dst_ip = "10.0.0.1"] as evt
                         |return p""".stripMargin)
    assert(q.events.head.obj.filter.contains(Bin("=", AttrRef("i", "dst_ip"), StrLit("10.0.0.1"))))
  }

  test("conjunctive filter") {
    val q = parseMulti("""proc p write ip i[dst_ip = "10.0.0.1" && dst_port = 443] as evt
                         |return p""".stripMargin)
    val f = q.events.head.obj.filter.get
    assert(f == Bin("&&",
      Bin("=", AttrRef("i", "dst_ip"), StrLit("10.0.0.1")),
      Bin("=", AttrRef("i", "dst_port"), NumLit("443"))))
  }

  test("temporal relations with 'with' keyword") {
    val q = parseMulti(
      """proc p1 read file f as evt1
        |proc p2 write file f as evt2
        |with evt1 before evt2
        |return p1""".stripMargin)
    assert(q.temps == Seq(TempRel("evt1", "before", "evt2")))
  }

  test("temporal relations without 'with'") {
    val q = parseMulti(
      """proc p1 read file f as evt1
        |proc p2 write file f as evt2
        |evt1 before evt2
        |return p1""".stripMargin)
    assert(q.temps == Seq(TempRel("evt1", "before", "evt2")))
  }

  test("chained temporal relations expand to pairs") {
    val q = parseMulti(
      """proc p1 read file f as evt1
        |proc p2 write file f as evt2
        |proc p3 read file f as evt3
        |with evt1 before evt2 before evt3
        |return p1""".stripMargin)
    assert(q.temps == Seq(TempRel("evt1", "before", "evt2"), TempRel("evt2", "before", "evt3")))
  }

  test("comma-separated temporal relations") {
    val q = parseMulti(
      """proc p1 read file f as evt1
        |proc p2 write file f as evt2
        |proc p3 read file f as evt3
        |with evt1 before evt2, evt2 before evt3
        |return p1""".stripMargin)
    assert(q.temps.size == 2)
  }

  test("'->' is sugar for before") {
    val q = parseMulti(
      """proc p1 read file f as evt1
        |proc p2 write file f as evt2
        |evt1 -> evt2
        |return p1""".stripMargin)
    assert(q.temps == Seq(TempRel("evt1", "before", "evt2")))
  }

  test("'after' relation") {
    val q = parseMulti(
      """proc p1 read file f as evt1
        |proc p2 write file f as evt2
        |evt1 after evt2
        |return p1""".stripMargin)
    assert(q.temps == Seq(TempRel("evt1", "after", "evt2")))
  }

  test("error: an event ordered against itself, at the repeated alias") {
    val events =
      """proc p1 read file f as evt1
        |proc p2 write file f as evt2
        |""".stripMargin
    for (rel <- Seq("with evt1 before evt1", "with evt1 after evt1", "with evt1 before evt2 before evt2")) {
      val src = s"$events$rel\nreturn p1"
      val e = intercept[ParseError](Parser.parse(src))
      assert(e.pos == events.length + rel.lastIndexOf("evt"), rel)
    }
  }

  test("error: a duplicate event alias, at the repeated alias") {
    val first = "proc p read file f as evt\nproc q write file f as "
    for (src <- Seq(s"${first}evt\nreturn p", s"forward\n${first}evt\nreturn p")) {
      val e = intercept[ParseError](Parser.parse(src))
      assert(e.pos == src.indexOf(first) + first.length, src)
      assert(e.msg.contains("duplicate event alias 'evt'"), e.msg)
    }
  }

  test("error: a variable used as two entity kinds, at its second use") {
    val multi = "proc p read file f as evt1\nproc f read file g as evt2\nreturn p"
    val anomaly =
      """(at "08/01/2023")
        |window = 1 min, step = 10 sec
        |proc p read file p as evt
        |return p, count(evt) as n
        |group by p""".stripMargin
    for ((src, at, kinds) <- Seq((multi, multi.indexOf("proc f") + 5, "file and proc"),
                                 (anomaly, anomaly.indexOf("file p") + 5, "proc and file"))) {
      val e = intercept[ParseError](Parser.parse(src))
      assert(e.pos == at, src)
      assert(e.msg.contains(s"used as both $kinds"), e.msg)
    }
  }

  test("error: a temporal relation naming an undeclared event, on either side") {
    val events =
      """proc p1 read file f as evt1
        |proc p2 write file f as evt2
        |""".stripMargin
    for (rel <- Seq("with evt1 before evt9", "with evt9 before evt1", "evt1 -> evt2 -> evt9",
                    "with evt1 before evt2, evt9 after evt1")) {
      val src = s"$events$rel\nreturn p1"
      val e = intercept[ParseError](Parser.parse(src))
      assert(e.pos == events.length + rel.indexOf("evt9"), rel)
      assert(e.msg.contains("undeclared event 'evt9'"), e.msg)
    }
  }

  test("return items with aliases and attributes") {
    val q = parseMulti("""proc p read file f as evt
                         |return p as proc_name, f.name as path, evt.ts""".stripMargin)
    assert(q.returns == Seq(
      ReturnItem(VarRef("p"), Some("proc_name")),
      ReturnItem(AttrRef("f", "name"), Some("path")),
      ReturnItem(AttrRef("evt", "ts"), None)))
  }

  test("aggregate return with group by") {
    val q = parseMulti("""proc p write ip i as evt
                         |return p, count(evt) as n, sum(evt.amount) as total
                         |group by p""".stripMargin)
    assert(q.returns(1).expr == Agg("count", VarRef("evt")))
    assert(q.returns(2).expr == Agg("sum", AttrRef("evt", "amount")))
    assert(q.groupBy == Seq(VarRef("p")))
  }

  test("dependency query: forward") {
    val q = Parser.parse(
      """forward
        |proc p1 read file f as evt1
        |proc p1 connect ip i as evt2
        |return p1""".stripMargin).asInstanceOf[DependencyQuery]
    assert(q.direction == "forward")
    assert(q.events.size == 2)
  }

  test("dependency query: backward") {
    val q = Parser.parse(
      """backward
        |proc p1 start proc p2 as evt2
        |proc p0 start proc p1 as evt1
        |return p0""".stripMargin).asInstanceOf[DependencyQuery]
    assert(q.direction == "backward")
  }

  test("anomaly query: window, step, group by, having with history refs") {
    val q = Parser.parse(
      """(at "08/01/2023")
        |agentid = 4
        |window = 1 min, step = 10 sec
        |proc p write ip i[dst_ip = "10.99.99.129"] as evt
        |return p, avg(evt.amount) as amt
        |group by p
        |having amt > 2 * (amt + amt[1] + amt[2]) / 3""".stripMargin).asInstanceOf[AnomalyQuery]
    assert(q.windowMs == 60000L)
    assert(q.stepMs == 10000L)
    assert(q.having.isDefined)
    val hists = {
      def go(e: Expr): Seq[HistRef] = e match {
        case h: HistRef   => Seq(h)
        case Bin(_, l, r) => go(l) ++ go(r)
        case Not(x)       => go(x)
        case _            => Seq.empty
      }
      go(q.having.get)
    }
    assert(hists == Seq(HistRef("amt", 1), HistRef("amt", 2)))
  }

  test("duration units") {
    def win(s: String): Long = Parser.parse(
      s"""(at "08/01/2023")
         |window = $s, step = 1 sec
         |proc p write ip i as evt
         |return p, avg(evt.amount) as amt
         |group by p""".stripMargin).asInstanceOf[AnomalyQuery].windowMs
    assert(win("30 sec") == 30000L)
    assert(win("2 min") == 120000L)
    assert(win("1 hour") == 3600000L)
    assert(win("500 ms") == 500L)
  }

  test("error: a window or step below 1 ms, at its duration") {
    for ((w, st) <- Seq("0 sec" -> "1 sec", "1 min" -> "0 sec", "0.1 ms" -> "1 sec")) {
      val head = s"(at \"08/01/2023\")\nwindow = $w, step = "
      val src = s"""$head$st
                   |proc p write ip i as evt
                   |return p, avg(evt.amount) as amt
                   |group by p""".stripMargin
      val e = intercept[ParseError](Parser.parse(src))
      assert(e.pos == (if (st == "0 sec") head.length else head.indexOf(w)), src)
    }
  }

  test("a string literal on the left of a comparison moves to the right") {
    val q = parseMulti("""proc p["%cmd%" = exe_name && "m" < exe_name && "b" != exe_name] read file f as evt
                         |return p""".stripMargin)
    assert(q.events.head.subj.filter.contains(Bin("&&",
      Bin("&&", Bin("=", AttrRef("p", "exe_name"), StrLit("%cmd%")), Bin(">", AttrRef("p", "exe_name"), StrLit("m"))),
      Bin("!=", AttrRef("p", "exe_name"), StrLit("b")))))
  }

  test("keywords are case-insensitive") {
    val q = Parser.parse("PROC p READ FILE f AS evt\nRETURN p")
    assert(q.isInstanceOf[MultiEventQuery])
  }

  test("operation is an open identifier set") {
    val q = parseMulti("proc p frobnicate file f as evt\nreturn p")
    assert(q.events.head.op == "frobnicate")
  }

  test("error: missing return clause") {
    assertThrows[ParseError](Parser.parse("proc p read file f as evt"))
  }

  test("error: missing 'as' alias") {
    assertThrows[ParseError](Parser.parse("proc p read file f\nreturn p"))
  }

  test("error: unknown entity kind rejected as op position mismatch") {
    assertThrows[ParseError](Parser.parse("proc p read gadget g as evt\nreturn p"))
  }

  test("error: trailing garbage") {
    assertThrows[ParseError](Parser.parse("proc p read file f as evt\nreturn p extra extra"))
  }

  test("error: anomaly with two event patterns") {
    assertThrows[ParseError](Parser.parse(
      """window = 1 min, step = 10 sec
        |proc p write ip i as evt
        |proc q write ip j as evt2
        |return p, avg(evt.amount) as amt
        |group by p""".stripMargin))
  }

  test("error: unterminated filter bracket") {
    assertThrows[ParseError](Parser.parse("proc p[\"%x\" read file f as evt\nreturn p"))
  }

  test("all twenty investigation queries parse") {
    import repro.attack.InvestigationQueries
    for (q <- InvestigationQueries.all) {
      val parsed = Parser.parse(q.aiql)
      assert(parsed != null, q.name)
    }
  }

  test("investigation queries have the paper's 19+1 split") {
    import repro.attack.InvestigationQueries
    val parsed = InvestigationQueries.all.map(q => Parser.parse(q.aiql))
    assert(parsed.count(_.isInstanceOf[AnomalyQuery]) == 1)
    assert(parsed.count(!_.isInstanceOf[AnomalyQuery]) == 19)
  }

  test("dependency syntax appears among the investigation queries") {
    import repro.attack.InvestigationQueries
    val parsed = InvestigationQueries.all.map(q => Parser.parse(q.aiql))
    assert(parsed.count(_.isInstanceOf[DependencyQuery]) >= 2)
  }

  test("comments are ignored anywhere") {
    val q = parseMulti(
      """// investigate exfiltration
        |proc p read file f as evt // the read
        |return p // done""".stripMargin)
    assert(q.events.size == 1)
  }

  test("parenthesized having expression") {
    val q = Parser.parse(
      """(at "08/01/2023")
        |window = 1 min, step = 10 sec
        |proc p write ip i as evt
        |return p, avg(evt.amount) as amt
        |group by p
        |having (amt > 100)""".stripMargin).asInstanceOf[AnomalyQuery]
    assert(q.having.contains(Bin(">", VarRef("amt"), NumLit("100"))))
  }
}
