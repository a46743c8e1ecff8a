// The quickstart example builds a small company database, optimizes an
// SQL query with a Volcano-generated optimizer, executes the chosen
// plan on the iterator engine, and prints the result. It is the minimal
// end-to-end tour of the public pieces: catalog → query → optimizer →
// plan → execution.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rel"
	"repro/internal/relopt"
	"repro/internal/sqlish"
)

func main() {
	// 1. Describe the data: tables, columns, statistics. The optimizer
	// sees only this catalog; the executor sees the rows.
	cat := rel.NewCatalog()
	emp := cat.AddTable("emp", 5000, 100)
	empID := cat.AddColumn(emp, "id", 5000, 1, 5000)
	empDept := cat.AddColumn(emp, "dept", 200, 1, 200)
	empAge := cat.AddColumn(emp, "age", 45, 21, 65)
	dept := cat.AddTable("dept", 200, 100)
	deptID := cat.AddColumn(dept, "id", 200, 1, 200)
	deptBudget := cat.AddColumn(dept, "budget", 50, 1, 50)

	db := exec.NewDB()
	db.Add(makeEmp(cat, empID, empDept, empAge))
	db.Add(makeDept(cat, deptID, deptBudget))

	// 2. Parse a query into the logical algebra. ORDER BY becomes the
	// required physical property vector.
	sql := `SELECT emp.id, emp.dept, dept.budget
	        FROM emp, dept
	        WHERE emp.dept = dept.id AND emp.age > 40
	        ORDER BY emp.dept`
	st, err := sqlish.Parse(cat, sql)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Optimize: the generated relational optimizer maps the logical
	// expression to the cheapest physical plan that delivers the
	// requested sort order.
	model := relopt.New(cat, relopt.DefaultConfig())
	opt := core.NewOptimizer(model, nil)
	root := opt.InsertQuery(st.Tree)
	plan, err := opt.Optimize(root, st.Required)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("chosen plan:")
	fmt.Print(plan.Format())
	fmt.Printf("search effort: %d classes, %d expressions, %d goals\n\n",
		opt.Stats().Groups, opt.Stats().Exprs, opt.Stats().GoalsOptimized)

	// 4. Execute the plan with the Volcano iterator engine.
	rows, _, err := exec.Run(db, plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d rows; first five:\n", len(rows))
	for i, r := range rows {
		if i == 5 {
			break
		}
		fmt.Printf("  emp %4d  dept %3d  budget %2d\n", r[0], r[1], r[2])
	}
}

func makeEmp(cat *rel.Catalog, id, dept, age rel.ColID) *exec.Table {
	t := cat.Table("emp")
	rng := rand.New(rand.NewSource(7))
	var rows []exec.Row
	for i := int64(1); i <= t.Rows; i++ {
		rows = append(rows, exec.Row{i, 1 + rng.Int63n(200), 21 + rng.Int63n(45)})
	}
	return exec.NewTable(t.Name, exec.NewSchema(t.Columns), rows)
}

func makeDept(cat *rel.Catalog, id, budget rel.ColID) *exec.Table {
	t := cat.Table("dept")
	rng := rand.New(rand.NewSource(8))
	var rows []exec.Row
	for i := int64(1); i <= t.Rows; i++ {
		rows = append(rows, exec.Row{i, 1 + rng.Int63n(50)})
	}
	return exec.NewTable(t.Name, exec.NewSchema(t.Columns), rows)
}
